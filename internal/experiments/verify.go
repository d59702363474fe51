package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/device"
)

// Check is one verified claim from the paper's evaluation.
type Check struct {
	// Claim cites the paper's statement.
	Claim string
	// Measured summarizes what this run observed.
	Measured string
	// Pass reports whether the claim's shape reproduced.
	Pass bool
}

// Verify runs the reproduction certificate: every load-bearing claim of
// §VII checked against fresh runs at the given scale on one dataset, plus
// the scale-independent cost-model checks. It returns the checks and a
// rendered report.
func Verify(ctx context.Context, dsName string, sc Scale, seed uint64) ([]Check, string, error) {
	var checks []Check
	add := func(claim, measured string, pass bool) {
		checks = append(checks, Check{Claim: claim, Measured: measured, Pass: pass})
	}

	// 1. Cost-model calibration (§VII-B): paper-scale epoch ratios.
	cpu := device.NewXeon("cpu0", 56)
	gpu := device.NewV100("gpu0")
	inBand := 0
	var ratios []string
	for _, spec := range data.AllSpecs() {
		arch := spec.Arch()
		mb := int64(arch.NumParameters()) * 8
		cpuEpoch := float64((spec.N+55)/56) * cpu.IterTime(arch, 56, mb).Seconds()
		gpuEpoch := float64((spec.N+8191)/8192) * gpu.IterTime(arch, 8192, mb).Seconds()
		r := cpuEpoch / gpuEpoch
		ratios = append(ratios, fmt.Sprintf("%s %.0f×", spec.Name, r))
		if r >= 200 && r <= 360 {
			inBand++
		}
	}
	add("Hogwild CPU epochs 236–317× slower than GPU (§VII-B)",
		strings.Join(ratios, ", "), inBand >= 3)

	// 2. GPU utilization thresholds (Figure 7 commentary).
	arch := data.Covtype.Arch()
	uLow, uHigh := gpu.Utilization(arch, 512), gpu.Utilization(arch, 8192)
	add("GPU ≈50% at the lower batch threshold, >80% at 8192 (§VII-B)",
		fmt.Sprintf("util(512)=%.0f%%, util(8192)=%.0f%%", 100*uLow, 100*uHigh),
		uLow > 0.4 && uLow < 0.6 && uHigh > 0.8)

	// 3–6 need live runs.
	p, err := NewProblem(dsName, sc, seed)
	if err != nil {
		return nil, "", err
	}
	rs, err := RunAll(ctx, p, seed)
	if err != nil {
		return nil, "", err
	}

	// 3. Heterogeneous algorithms converge fastest (Figure 5).
	reach := rs.TimeToTarget(1.25)
	het, okH := bestOfDur(reach, "CPU+GPU", "Adaptive")
	single, okS := bestOfDur(reach, "Hogbatch CPU", "Hogbatch GPU", "TensorFlow")
	measured := "heterogeneous never reached 1.25× best"
	if okH && okS {
		measured = fmt.Sprintf("heterogeneous %v vs single-device %v to 1.25× best", het, single)
	} else if okH {
		measured = fmt.Sprintf("only heterogeneous reached 1.25× best (%v)", het)
	}
	add("heterogeneous Hogbatch reaches low loss fastest (Fig 5)",
		measured, okH && (!okS || het <= single))

	// 4. Hogwild CPU epoch deficit (Figure 5 commentary).
	cpuEp := rs.Results[core.AlgHogbatchCPU.String()].Epochs
	gpuEp := rs.Results[core.AlgHogbatchGPU.String()].Epochs
	// The per-example gap compresses at reduced scales (EXPERIMENTS.md);
	// at full scale the ratio is 236–317×, checked above via cost models.
	add("Hogwild CPU completes far fewer epochs than GPU in the same time",
		fmt.Sprintf("CPU %.2f vs GPU %.2f epochs", cpuEp, gpuEp), cpuEp < gpuEp/2)

	// 5. TF statistical efficiency ≈ Hogbatch GPU (Figure 6).
	tfLoss, ok1 := lossAtEpochN(rs, core.AlgTensorFlow.String(), 3)
	gpuLoss, ok2 := lossAtEpochN(rs, core.AlgHogbatchGPU.String(), 3)
	rel := 0.0
	if ok1 && ok2 && gpuLoss != 0 {
		rel = tfLoss/gpuLoss - 1
	}
	add("TensorFlow's per-epoch curve overlaps Hogbatch GPU (Fig 6)",
		fmt.Sprintf("relative gap %.2f%% at epoch 3", 100*rel),
		ok1 && ok2 && rel < 0.05 && rel > -0.05)

	// 6. Update distribution: static CPU-dominant, Adaptive more balanced
	// (Figure 8).
	hybrid := rs.Results[core.AlgCPUGPUHogbatch.String()].CPUShare()
	adaptive := rs.Results[core.AlgAdaptiveHogbatch.String()].CPUShare()
	add("CPU updates dominate CPU+GPU Hogbatch; Adaptive rebalances (Fig 8)",
		fmt.Sprintf("CPU share %.1f%% static vs %.1f%% adaptive", 100*hybrid, 100*adaptive),
		hybrid > 0.85 && adaptive < hybrid)

	var b strings.Builder
	fmt.Fprintf(&b, "Reproduction certificate — %s at %s scale (seed %d)\n\n", dsName, sc.Name, seed)
	passed := 0
	for _, c := range checks {
		status := "PASS"
		if c.Pass {
			passed++
		} else {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s\n       measured: %s\n", status, c.Claim, c.Measured)
	}
	fmt.Fprintf(&b, "\n%d/%d claims reproduced\n", passed, len(checks))
	return checks, b.String(), nil
}

func bestOfDur(m map[string]time.Duration, names ...string) (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for _, n := range names {
		if at, have := m[n]; have {
			if !ok || at < best {
				best, ok = at, true
			}
		}
	}
	return best, ok
}

// lossAtEpochN returns the algorithm's loss at the barrier that ends epoch n,
// so comparisons across algorithms align on identical training progress. It
// is the last sample at n epochs: a SampleEvery tick that fires once the pool
// is drained reads n epochs too, but with the epoch's last batch still in
// flight.
func lossAtEpochN(rs *RunSet, name string, n float64) (loss float64, ok bool) {
	res, have := rs.Results[name]
	if !have {
		return 0, false
	}
	for _, p := range res.Trace.Points {
		if p.Epoch > n-0.01 && p.Epoch < n+0.01 {
			loss, ok = p.Loss, true
		}
	}
	return loss, ok
}
