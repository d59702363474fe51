package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloadDef is one named workload: why it is in the set and how to run it.
type workloadDef struct {
	name string
	why  string
	run  func(rc *runCtx) error
}

// workloads lists the set in run order; names are fixed by BENCHMARK.json.
var workloads = []workloadDef{
	{"dense-adaptive", "headline Adaptive Hogbatch on the live engine; nearly all time is dense GEMM, so kernel work shows here and wire work does not", runDenseAdaptive},
	{"sparse-hybrid", "CSR first layer on a 2.7M-parameter model; SpMM and column-restricted updates move it, dense GEMM tiling barely does", runSparseHybrid},
	{"hogwild-cpu", "one example per thread: per-iteration overhead, allocation, msgq hand-off and atomic writes dominate, GEMM tiling gives nothing", runHogwildCPU},
	{"cluster-ssp", "only workload with transport and parameter serialisation on the blocking path (full model each way per dispatch)", runClusterSSP},
	{"sim-adaptive", "deterministic simulated engine with fixed work: exact statistical-efficiency guard and the wall-cost meter of the coordinator", runSimAdaptive},
	{"serve-soak", "open-loop serving beside live training on one model: latency under contention; a serving-only gain shows here alone", runServeSoak},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runCtx carries one workload run's inputs and collects its outputs.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	outDir   string
	log      io.Writer

	rec  *recorder // nil on the untraced pass
	root int       // the workload's root span

	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

// short reports a run too brief for the learning-quality guards (loss
// ratio, simulated time-to-target) to be meaningful: the smoke test's.
func (rc *runCtx) short() bool { return rc.seconds < 3*time.Second }

func (rc *runCtx) set(name string, v float64) { rc.values[name] = v }

// check records one correctness check; a failed one makes the run incorrect.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	if !ok {
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
	}
}

// ops counts operations attempted and failed (dispatches, requests).
func (rc *runCtx) ops(attempted, failed int64) {
	rc.attempted += attempted
	rc.failed += failed
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// outcome assembles the result line: every declared metric of the pass that
// ran, 0 where the workload does not touch the layer.
func (rc *runCtx) outcome() outcome {
	defs := endToEnd
	if rc.traced {
		defs = perLayer
	}
	out := outcome{
		Correct:   len(rc.problems) == 0 && rc.attempted > 0,
		Attempted: max(rc.attempted, 1),
		Failed:    rc.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: rc.values[d.Name], Unit: d.Unit}
	}
	return out
}

// printMetrics lists every metric of the pass by name with its unit.
func (rc *runCtx) printMetrics(out outcome) {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rc.logf("  %-34s %16.6g %s", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	rc.logf("  attempted %d, failed %d, correct %v", out.Attempted, out.Failed, out.Correct)
	for _, p := range rc.problems {
		rc.logf("  CHECK FAILED: %s", p)
	}
}

// finishTrace prints the per-layer self-time table and writes the workload's
// Chrome trace under outDir.
func (rc *runCtx) finishTrace() error {
	rc.rec.end(rc.root)
	spans := rc.rec.snapshot()
	printLayerTable(rc.log, spans)
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	path := filepath.Join(rc.outDir, rc.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: trace file: %w", err)
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: close %s: %w", path, err)
	}
	rc.logf("chrome trace: %s (%d spans)", path, len(spans))
	return nil
}

// runWorkload runs one workload in this process and returns its result line.
// The process is the isolation unit: heap growth, GC state and peak RSS of
// one workload never leak into the next, so callers wanting several
// workloads start one process each (see runSet).
func runWorkload(def *workloadDef, seed uint64, seconds time.Duration, traced bool, outDir string, log io.Writer) (outcome, error) {
	// Two busy program goroutines is what the 2-core reference box can run
	// without time-slicing; pinning it keeps runs comparable on larger hosts.
	runtime.GOMAXPROCS(2)
	rc := &runCtx{
		workload: def.name, seed: seed, seconds: seconds, traced: traced,
		outDir: outDir, log: log, root: -1, values: make(map[string]float64),
	}
	if traced {
		rc.rec = newRecorder(def.name)
		rc.root = rc.rec.begin("bench:"+def.name, -1)
	}
	if err := def.run(rc); err != nil {
		return outcome{}, fmt.Errorf("bench: %s: %w", def.name, err)
	}
	if traced {
		if err := rc.finishTrace(); err != nil {
			return outcome{}, err
		}
	} else {
		rc.set("peak_rss_mb", peakRSSMB())
	}
	out := rc.outcome()
	rc.printMetrics(out)
	return out, nil
}

// peakRSSMB is this process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the runtime's allocation and GC activity between two readings.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCount             uint32
	gcPause             time.Duration
}

func (d *memDelta) add(o memDelta) {
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.gcCount += o.gcCount
	d.gcPause += o.gcPause
}

// measureMem runs fn and returns what it allocated process-wide.
func measureMem(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		gcCount:    b.NumGC - a.NumGC,
		gcPause:    time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

func heapSysMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys) / (1 << 20)
}
