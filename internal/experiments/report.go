package experiments

import (
	"fmt"
	"io"
	"sort"

	"heterosgd/internal/core"
	"heterosgd/internal/metrics"
)

// WriteRunReport renders a finished run the way hogtrain and hogcluster end:
// the one-line summary, the fault report and event log when anything faulted
// or churned, the transport accounting of a networked run, the staleness
// histogram, final batch sizes, per-worker update shares, and the loss curve
// as an ASCII chart (as CSV when csv is set).
func WriteRunReport(w io.Writer, res *core.Result, csv bool) {
	fmt.Fprintln(w, res)
	if res.Health.Faulty() {
		fmt.Fprintf(w, "fault report: %s\n", res.Health)
		fmt.Fprint(w, res.Events)
	} else if res.Elastic.Churned() {
		// Membership transitions are worth a look even when nothing faulted.
		fmt.Fprint(w, res.Events)
	}
	if tr := res.Health.Transport; tr != nil {
		fmt.Fprintln(w, tr)
		if tr.AppliedExamples != res.ExamplesProcessed {
			fmt.Fprintf(w, "transport: WARNING applied %d != scheduled %d examples\n", tr.AppliedExamples, res.ExamplesProcessed)
		}
	}
	if res.Staleness != nil && res.Staleness.Count > 0 {
		fmt.Fprintln(w, res.Staleness)
	}
	fmt.Fprintf(w, "final batch sizes: %v (resizes %v)\n", res.FinalBatch, res.Resizes)
	workers := make([]string, 0, len(res.Updates))
	for worker := range res.Updates {
		workers = append(workers, worker)
	}
	sort.Strings(workers)
	total := float64(res.TotalUpdates())
	for _, worker := range workers {
		n := res.Updates[worker]
		fmt.Fprintf(w, "  %-6s %10d updates (%.1f%%)\n", worker, n, 100*(float64(n)/total))
	}
	if csv {
		fmt.Fprint(w, metrics.CSV([]*metrics.Trace{res.Trace}))
	} else {
		fmt.Fprint(w, metrics.ASCIIChart([]*metrics.Trace{res.Trace}, 64, 12, false, "loss vs time"))
	}
}
