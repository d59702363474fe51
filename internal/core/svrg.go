package core

import (
	"heterosgd/internal/data"
	"heterosgd/internal/nn"
)

// svrgState is the shared variance-reduction state of AlgSVRG: the anchor
// model w̃ and its large-sample gradient μ, which the GPU worker's step
// refreshes and the CPU worker's corrected updates read. On the simulated
// engine the refresh runs when the GPU's iteration completes, so CPU updates
// dispatched while it is in flight still use the previous anchor.
//
// §II motivates the paper's heterogeneous mixture through exactly this
// structure: "we can think of the CPU updates as many small steps in a
// guessed direction, while the GPU updates are rare jumps using a compass.
// This combination of updates … is at the origin of the SVRG family of
// algorithms [9]." AlgSVRG makes the connection literal — the GPU's role
// becomes computing the SVRG anchor gradient over its large batch, and
// every CPU Hogwild update applies the variance-reduced correction
//
//	w ← w − η·(∇f_B(w) − ∇f_B(w̃) + μ).
type svrgState struct {
	anchor *nn.Params // w̃: model snapshot the anchor gradient was taken at
	mu     *nn.Params // μ: gradient over the anchor sample at w̃
	ready  bool
}

func newSVRGState(net *nn.Network) *svrgState {
	return &svrgState{
		anchor: net.NewParams(nn.InitZero, nil),
		mu:     net.NewParams(nn.InitZero, nil),
	}
}

// refresh makes model — the GPU's dispatch-time copy — the anchor w̃ and μ
// its gradient over the anchor batch, and publishes both to the CPU workers.
func (st *svrgState) refresh(net *nn.Network, model *nn.Params, ws *nn.Workspace, batch data.Batch) {
	st.anchor.CopyFrom(model)
	net.GradientX(st.anchor, ws, batch.Input(), batch.Y, st.mu, 1)
	st.ready = true
}

// correctedGradient computes the variance-reduced gradient for a sub-batch
// into grad: ∇f_B(w) − ∇f_B(w̃) + μ, using scratch for the w̃ term. Before
// the first refresh it computes the plain gradient (warm-up phase). Returns
// the sub-batch loss at w.
func (st *svrgState) correctedGradient(net *nn.Network, global *nn.Params, ws *nn.Workspace,
	batch data.Batch, grad, scratch *nn.Params) float64 {
	loss := net.GradientX(global, ws, batch.Input(), batch.Y, grad, 1)
	if !st.ready {
		return loss
	}
	net.GradientX(st.anchor, ws, batch.Input(), batch.Y, scratch, 1)
	// AddScaled clears grad.ActiveCols: the combined gradient has nonzero
	// first-layer columns wherever μ does, not just in this sub-batch.
	grad.AddScaled(-1, scratch)
	grad.AddScaled(1, st.mu)
	return loss
}
