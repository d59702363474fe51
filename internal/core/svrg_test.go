package core

import (
	"context"
	"testing"

	"heterosgd/internal/nn"
	"heterosgd/internal/transport"
)

func TestSVRGConverges(t *testing.T) {
	cfg := tinyConfig(t, AlgSVRG)
	res, err := RunSim(context.Background(), cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0].Loss
	if res.FinalLoss >= first*0.5 {
		t.Fatalf("SVRG failed to learn: %v → %v", first, res.FinalLoss)
	}
	// Both streams must be active: CPU corrected updates and GPU anchors.
	if res.Updates["cpu0"] == 0 || res.Updates["gpu0"] == 0 {
		t.Fatalf("missing update streams: %v", res.Updates)
	}
}

func TestSVRGRejectedByRealEngine(t *testing.T) {
	cfg := tinyConfig(t, AlgSVRG)
	if _, err := RunReal(context.Background(), cfg, realBudget); err == nil {
		t.Fatal("real engine must reject AlgSVRG explicitly")
	}
}

func TestSVRGCorrectionIsExactAtAnchor(t *testing.T) {
	// At w == w̃ over the anchor batch itself, the corrected gradient
	// equals μ: ∇f(w) − ∇f(w̃) cancels. This is the defining identity of
	// the SVRG estimator.
	cfg := tinyConfig(t, AlgSVRG)
	net := cfg.Net
	rng := RunRNG(7)
	global := net.NewParams(nn.InitXavier, rng)
	st := newSVRGState(net)
	ws := net.NewWorkspace(64)
	batch := cfg.Dataset.View(0, 64)
	st.refresh(net, global, ws, batch)

	grad := net.NewParams(nn.InitZero, nil)
	scratch := net.NewParams(nn.InitZero, nil)
	st.correctedGradient(net, global, ws, batch, grad, scratch)
	if d := grad.MaxAbsDiff(st.mu); d > 1e-12 {
		t.Fatalf("corrected gradient at the anchor must equal μ (diff %v)", d)
	}
}

func TestSVRGWarmupUsesPlainGradient(t *testing.T) {
	cfg := tinyConfig(t, AlgSVRG)
	net := cfg.Net
	rng := RunRNG(9)
	global := net.NewParams(nn.InitXavier, rng)
	st := newSVRGState(net) // never refreshed
	ws := net.NewWorkspace(16)
	batch := cfg.Dataset.View(0, 16)

	grad := net.NewParams(nn.InitZero, nil)
	scratch := net.NewParams(nn.InitZero, nil)
	st.correctedGradient(net, global, ws, batch, grad, scratch)

	plain := net.NewParams(nn.InitZero, nil)
	net.GradientX(global, ws, batch.Input(), batch.Y, plain, 1)
	if d := grad.MaxAbsDiff(plain); d != 0 {
		t.Fatalf("warm-up gradient must be the plain gradient (diff %v)", d)
	}
}

func TestSVRGVarianceReduction(t *testing.T) {
	// Near the anchor, corrected single-example gradients must vary less
	// across examples than plain single-example gradients — the point of
	// the estimator. Compare the spread of gradient norms.
	cfg := tinyConfig(t, AlgSVRG)
	net := cfg.Net
	rng := RunRNG(11)
	global := net.NewParams(nn.InitXavier, rng)
	st := newSVRGState(net)
	ws := net.NewWorkspace(cfg.Dataset.N())
	st.refresh(net, global, ws, cfg.Dataset.View(0, cfg.Dataset.N()))

	grad := net.NewParams(nn.InitZero, nil)
	scratch := net.NewParams(nn.InitZero, nil)
	var plainVar, corrVar float64
	const samples = 32
	for i := 0; i < samples; i++ {
		b := cfg.Dataset.View(i, i+1)
		net.GradientX(global, ws, b.Input(), b.Y, grad, 1)
		plainVar += grad.GradNorm() * grad.GradNorm()
		st.correctedGradient(net, global, ws, b, grad, scratch)
		// Corrected gradient fluctuates around μ; measure deviation from μ.
		grad.AddScaled(-1, st.mu)
		corrVar += grad.GradNorm() * grad.GradNorm()
	}
	// Plain per-example gradients fluctuate around the (nonzero) full
	// gradient; corrected ones fluctuate around zero deviation from μ. At
	// w == w̃ the deviation is exactly zero.
	if corrVar > 1e-18 {
		t.Fatalf("at the anchor the corrected deviation must vanish, got %v", corrVar)
	}
	if plainVar == 0 {
		t.Fatal("plain gradients cannot all be zero")
	}
}

// TestSVRGAnchorVisibleAtGPUCompletion drives the simulated executor through
// a CPU dispatch sent while the GPU's anchor iteration is in flight: the CPU
// update must use the previous anchor, because a refresh becomes visible
// only when the GPU's iteration completes.
func TestSVRGAnchorVisibleAtGPUCompletion(t *testing.T) {
	cfg := tinyConfig(t, AlgSVRG)
	x, err := newSimExec(context.Background(), &cfg, simHorizon)
	if err != nil {
		t.Fatal(err)
	}
	l := x.l
	const cpu, gpu, lr = 0, 1, 0.05
	gb, cb := cfg.Workers[gpu].InitialBatch, cfg.Workers[cpu].InitialBatch
	seq := uint64(0)
	send := func(id, lo, hi int) {
		seq++
		if err := x.Send(id, transport.Work{Seq: seq, Lo: lo, Hi: hi, LR: lr}); err != nil {
			t.Fatal(err)
		}
	}
	complete := func() {
		m, st := x.Recv(-1)
		if st != transport.RecvOK || m.Done == nil {
			t.Fatalf("Recv = %v, %+v", st, m.Done)
		}
		x.accept(m.Done, nil)
	}
	// The first anchor, then a CPU step that moves the model off it.
	send(gpu, 0, gb)
	complete()
	st := l.step.svrg
	prev := &svrgState{anchor: st.anchor.Clone(), mu: st.mu.Clone(), ready: st.ready}
	send(cpu, gb, gb+cb)
	complete()

	// The next anchor is in flight when the CPU takes its next dispatch.
	send(gpu, 0, gb)
	want := l.global.Clone()
	send(cpu, gb+cb, gb+2*cb)
	ref := l.step
	ref.svrg = prev
	ref.iterate(newWorker(&cfg, cpu, "ref", cfg.Workers[cpu], 1, cb), want, cfg.Dataset.View(gb+cb, gb+2*cb), lr, false)
	if d := want.MaxAbsDiff(l.global); d != 0 {
		t.Fatalf("the CPU update sent during the GPU's anchor iteration used the unfinished anchor (max |Δ| %v)", d)
	}
	for range 2 {
		complete()
	}
	if st.anchor.MaxAbsDiff(prev.anchor) == 0 {
		t.Fatal("the second anchor equals the first: the check above proves nothing")
	}
}
