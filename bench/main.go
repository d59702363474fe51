// Command bench is the repository's performance benchmark: six named
// workloads over the whole stack, four bounded end-to-end metrics measured
// with tracing off, and a separate traced pass that reports every layer.
// BENCHMARK.json at the repository root is its contract; README.md beside
// this file defines every metric.
//
//	bash bench/run.sh --workload dense-adaptive --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # all six workloads, one process each
//	bash bench/run.sh -trace 1 -out dir    # the traced pass, Chrome traces in dir
//	bash bench/run.sh -repeat 10 -json baseline.json
//	bash bench/run.sh -list
//
// A run of one workload prints its metrics by name and ends with one JSON
// object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"heterosgd/internal/buildinfo"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed         = flag.Uint64("seed", 1, "seed for dataset generation, Config.Seed and request order")
		seconds      = flag.Float64("seconds", 15, "seconds one workload measures for")
		trace        = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
		list         = flag.Bool("list", false, "print workloads and metrics with units and bounds, run nothing")
		jsonOut      = flag.String("json", "", "write the summary of a multi-workload run to this file")
		repeat       = flag.Int("repeat", 1, "run the set this many times on consecutive seeds and check every end-to-end spread against its bound")
		outDir       = flag.String("out", ".bench_build/traces", "directory for the traced pass's Chrome traces")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	var defs []*workloadDef
	for _, name := range strings.Split(*workloadFlag, ",") {
		if name == "" {
			continue
		}
		def := findWorkload(name)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; -list names them\n", name)
			os.Exit(2)
		}
		defs = append(defs, def)
	}
	if len(defs) == 0 {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if len(defs) == 1 && *repeat == 1 {
		// The contract's form: one workload, in this process, result line last.
		fmt.Printf("%s: seed %d, %v, trace %d\n", defs[0].name, *seed, dur, *trace)
		out, err := runWorkload(defs[0], *seed, dur, *trace == 1, *outDir, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: encode result:", err)
			os.Exit(1)
		}
		// Exit 0 even when the outputs were wrong: the line says so, and a
		// non-zero exit is kept for a run that produced no result.
		fmt.Println(string(line))
		return
	}

	sum := runSet(defs, *seed, *seconds, *trace, *repeat, *outDir)
	ok := sum.print(os.Stdout)
	if *jsonOut != "" {
		if err := sum.write(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", d.name, d.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off; bound = share of the parent's median it may worsen by):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %-8s better %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced pass; no bound):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %-8s better %s\n", m.Name, m.Unit, m.Better)
	}
}

// summary is what a multi-workload (or repeated) run reports and -json writes.
type summary struct {
	Build   string  `json:"build"`
	Go      string  `json:"go"`
	NProc   int     `json:"nproc"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   int     `json:"trace"`
	Repeat  int     `json:"repeat"`
	// Runs[workload][i] is repeat i's result line.
	Runs map[string][]outcome `json:"runs"`
	// Spread[workload][metric] summarises the repeats (end-to-end pass,
	// repeat ≥ 2 only).
	Spread map[string]map[string]spread `json:"spread,omitempty"`

	order []string
}

// runSet runs each workload in a child process of its own — so heap growth,
// GC state and peak RSS never leak from one workload into the next — and
// collects the result lines. A child that fails marks that run of its
// workload failed; the set carries on.
func runSet(defs []*workloadDef, seed uint64, seconds float64, trace, repeat int, outDir string) *summary {
	sum := &summary{
		Build: buildinfo.Version(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Trace: trace, Repeat: repeat,
		Runs: make(map[string][]outcome),
	}
	for _, d := range defs {
		sum.order = append(sum.order, d.name)
	}
	for rep := 0; rep < repeat; rep++ {
		for _, d := range defs {
			out, err := runChild(d.name, seed+uint64(rep), seconds, trace, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (seed %d) failed: %v\n", d.name, seed+uint64(rep), err)
				out = outcome{Correct: false, Attempted: 1, Failed: 1}
			}
			sum.Runs[d.name] = append(sum.Runs[d.name], out)
		}
	}
	if repeat >= 2 && trace == 0 {
		sum.Spread = make(map[string]map[string]spread)
		for name, runs := range sum.Runs {
			sum.Spread[name] = make(map[string]spread)
			for _, m := range endToEnd {
				if xs := metricValues(runs, m.Name); len(xs) >= 2 {
					sum.Spread[name][m.Name] = spreadOf(xs)
				}
			}
		}
	}
	return sum
}

// metricValues collects one metric across a workload's runs; a run that
// died carries no metrics and contributes nothing.
func metricValues(runs []outcome, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// runChild re-executes this binary for one workload, passes its output
// through, and parses the result line.
func runChild(name string, seed uint64, seconds float64, trace int, outDir string) (outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		if runErr != nil {
			return outcome{}, runErr
		}
		return outcome{}, fmt.Errorf("no result line: %w", err)
	}
	return out, nil
}

// print writes the set's table and reports whether every run was correct
// and every repeated end-to-end metric stayed within its bound.
func (s *summary) print(w io.Writer) bool {
	ok := true
	defs := endToEnd
	if s.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n== summary: seed %d, %gs per workload, trace %d, %d repeat(s), %s, %d CPUs ==\n",
		s.Seed, s.Seconds, s.Trace, s.Repeat, s.Go, s.NProc)
	for _, name := range s.order {
		runs := s.Runs[name]
		var attempted, failed int64
		correct := true
		for _, r := range runs {
			attempted += r.Attempted
			failed += r.Failed
			correct = correct && r.Correct
		}
		ok = ok && correct
		fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", name, attempted, failed, correct)
		for _, m := range defs {
			xs := metricValues(runs, m.Name)
			if len(xs) == 0 {
				continue
			}
			if sp, found := s.Spread[name][m.Name]; found {
				verdict := "ok"
				// setup_s is held to its bound on the median only, as the
				// PR driver does: tens of milliseconds spread too widely.
				if sp.IQR > m.Bound && m.Name != "setup_s" {
					verdict, ok = "SPREAD EXCEEDS BOUND", false
				}
				fmt.Fprintf(w, "  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g iqr/median %.4f range/median %.4f bound %.2f %s (%d runs) %s\n",
					m.Name, sp.Median, sp.Q1, sp.Q3, sp.IQR, sp.Range, m.Bound, m.Unit, len(xs), verdict)
			} else {
				fmt.Fprintf(w, "  %-34s %-14.6g %s\n", m.Name, median(xs), m.Unit)
			}
		}
	}
	return ok
}

func (s *summary) write(path string) error {
	// Map keys marshal sorted, so the file is stable run to run.
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode summary: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write summary: %w", err)
	}
	return nil
}
