package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program (or
// one span the program's own tracer recorded, folded in after the run).
// Name is "layer:operation"; the layer is a module name under internal/.
type span struct {
	Name     string
	Start    time.Duration // since the recorder's origin
	End      time.Duration
	Parent   int // index of the span that caused this one, -1 for a root
	Workload string
	// Track overrides the Chrome-trace row (default: the layer).
	Track string
	// Virtual marks spans stamped on the simulated engine's virtual clock;
	// they are exported on their own process row and never subtracted from
	// a wall-clock parent.
	Virtual bool
	Arg     int64
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ":")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced pass: every method is a no-op, so call sites need no branches.
type recorder struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{origin: time.Now(), workload: workload}
}

// now returns the time since the recorder's origin (0 on a nil recorder).
func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.origin)
}

// begin opens a span under parent and returns its id for end (and for
// children to name as their parent).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(span{Name: name, Start: r.now(), End: -1, Parent: parent})
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	at := r.now()
	r.mu.Lock()
	r.spans[id].End = at
	r.mu.Unlock()
}

// add records a complete span and returns its id.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	s.Workload = r.workload
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// snapshot returns the closed spans; a span still open (End < Start) is
// closed at the current time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = at
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Overlapping children (two workers busy at once) are
// merged first, so covered time is never subtracted twice, and children are
// clipped to the parent. Virtual-clock children leave a wall-clock parent's
// self time alone.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Virtual == spans[s.Parent].Virtual {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerRow is one line of the per-layer table the traced pass prints.
type layerRow struct {
	Layer       string
	Spans       int
	Total, Self time.Duration
}

// layerTable sums span and self time per layer, ordered by self time.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byLayer := make(map[string]*layerRow)
	for i, s := range spans {
		name := s.layer()
		if s.Virtual {
			name += " (virtual clock)"
		}
		row := byLayer[name]
		if row == nil {
			row = &layerRow{Layer: name}
			byLayer[name] = row
		}
		row.Spans++
		row.Total += s.End - s.Start
		row.Self += self[i]
	}
	rows := make([]layerRow, 0, len(byLayer))
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Self != rows[b].Self {
			return rows[a].Self > rows[b].Self
		}
		return rows[a].Layer < rows[b].Layer
	})
	return rows
}

func printLayerTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "layer", "spans", "total_ms", "self_ms")
	for _, r := range layerTable(spans) {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f\n", r.Layer, r.Spans, ms(r.Total), ms(r.Self))
	}
}

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace exports spans as complete ("X") events. Each track gets
// as many rows as it needs for every row to nest properly: a span joins the
// first row whose open span contains it or has already ended.
func writeChromeTrace(w io.Writer, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	type row struct {
		tid  int
		open []time.Duration // end times of the spans nested on this row
	}
	rows := make(map[string][]*row)
	var events []chromeEvent
	nextTid := 1
	for _, i := range order {
		s := spans[i]
		pid, track := 1, s.Track
		if track == "" {
			track = s.layer()
		}
		if s.Virtual {
			pid = 2
		}
		key := fmt.Sprintf("%d/%s", pid, track)
		var home *row
		for _, r := range rows[key] {
			for len(r.open) > 0 && r.open[len(r.open)-1] <= s.Start {
				r.open = r.open[:len(r.open)-1]
			}
			if len(r.open) == 0 || s.End <= r.open[len(r.open)-1] {
				home = r
				break
			}
		}
		if home == nil {
			home = &row{tid: nextTid}
			nextTid++
			label := track
			if n := len(rows[key]); n > 0 {
				label = fmt.Sprintf("%s #%d", track, n+1)
			}
			rows[key] = append(rows[key], home)
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: home.tid,
				Args: map[string]any{"name": label}})
		}
		home.open = append(home.open, s.End)
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X", Pid: pid, Tid: home.tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"workload": s.Workload, "span": i, "parent": s.Parent, "arg": s.Arg},
		})
	}
	events = append(events,
		chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "wall clock"}},
		chromeEvent{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "virtual clock (sim engine)"}})
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
