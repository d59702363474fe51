// Package core implements the paper's contribution: the heterogeneous
// CPU+GPU deep-learning framework (coordinator + asynchronous workers,
// §V) and the SGD algorithms built on it — Hogbatch (Algorithm 1), the
// static CPU+GPU Hogbatch (§VI-B), and Adaptive Hogbatch (Algorithm 2) —
// plus single-device mini-batch and Hogwild baselines.
//
// Three execution engines run the same coordinator object (loop.go), which
// owns the run state, its resume and its capture, and the same per-lane
// update (step.go):
//
//   - RunSim: a discrete-event engine on a virtual clock driven by the
//     device cost models (internal/device). Every gradient is computed for
//     real; elapsed time is simulated, reproducing the paper's CPU/GPU
//     speed ratios faithfully on any host (DESIGN.md §2).
//   - RunReal: goroutines and wall-clock time, with the coordinator and
//     workers as concurrent threads communicating over internal/msgq —
//     the live system, structured exactly like the paper's pthreads code.
//   - RunCluster: wall-clock time with workers in other processes, over
//     TCP.
package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
	"heterosgd/internal/telemetry"
	"heterosgd/internal/tensor"
	"heterosgd/internal/tfbaseline"
)

// Algorithm identifies an SGD variant from the paper's evaluation (§VII-B).
type Algorithm int

const (
	// AlgHogbatchCPU is Hogbatch on CPU only; with one example per thread
	// it degenerates to Hogwild, the paper's CPU configuration.
	AlgHogbatchCPU Algorithm = iota
	// AlgHogbatchGPU is large-batch mini-batch SGD on GPU only.
	AlgHogbatchGPU
	// AlgCPUGPUHogbatch runs small static batches on CPU and large static
	// batches on GPU, updating one shared model asynchronously (§VI-B).
	AlgCPUGPUHogbatch
	// AlgAdaptiveHogbatch continuously rebalances batch sizes from the
	// per-worker update counts (Algorithm 2).
	AlgAdaptiveHogbatch
	// AlgMinibatchCPU is synchronous mini-batch SGD on CPU (baseline).
	AlgMinibatchCPU
	// AlgTensorFlow is the paper's TensorFlow comparator: Hogbatch GPU's
	// worker on internal/tfbaseline's op-graph device model, so only the
	// virtual time of an iteration differs. Simulated engine only.
	AlgTensorFlow
	// AlgSVRG is the variance-reduced heterogeneous algorithm §II alludes
	// to: the GPU periodically computes a large-batch anchor gradient μ at
	// a model snapshot w̃ while the CPU performs Hogwild updates with the
	// SVRG correction ∇f(w) − ∇f(w̃) + μ. Simulated engine only.
	AlgSVRG
	// AlgOmnivore is the §II comparator: static speed-proportional batches
	// (device.SpeedSplit) in lockstep — one step per synchronous round, the
	// round lasting as long as its slowest device. Simulated engine only.
	AlgOmnivore
	// AlgAdaptiveLR is the related-work comparator from §II's distributed
	// parameter-server setting [10]: batch sizes stay static (as in
	// CPU+GPU Hogbatch) and the coordinator instead rebalances per-worker
	// *learning rates* from the update counts. The paper argues
	// "learning rate maintenance is more complex than modifying the
	// batch size"; this algorithm lets the claim be tested.
	AlgAdaptiveLR
	// AlgSSP is stale-synchronous parallel: asynchronous dispatch like
	// CPU+GPU Hogbatch, but the coordinator refuses fresh work to a worker
	// whose clock (completed dispatches) is more than StalenessBound steps
	// ahead of the slowest healthy worker. Both devices use equal batch
	// sizes so clocks compare step for step; heterogeneity appears as the
	// fast worker being parked at the bound.
	AlgSSP
	// AlgLocalSGD runs synchronous rounds: each worker takes LocalSteps
	// local SGD steps on a private replica, then the coordinator averages
	// the participants' replicas into the global model at a round barrier.
	AlgLocalSGD
	// AlgDCASGD is CPU+GPU Hogbatch with DC-ASGD delay compensation on the
	// GPU's stale deep-replica applies: the gradient becomes
	// g + λ·g⊙g⊙(w_now − w_then), approximating the gradient at the model
	// it is applied to rather than the model it was computed against.
	AlgDCASGD
)

// algorithms is the one name table: the display name the figures and traces
// use, and the CLI names ParseAlgorithm accepts (canonical first), in the
// order the -alg help text presents them.
var algorithms = []struct {
	alg     Algorithm
	display string
	names   []string
}{
	{AlgHogbatchCPU, "Hogbatch CPU", []string{"cpu", "hogbatch-cpu", "hogwild"}},
	{AlgHogbatchGPU, "Hogbatch GPU", []string{"gpu", "hogbatch-gpu", "minibatch-gpu"}},
	{AlgCPUGPUHogbatch, "CPU+GPU", []string{"cpu+gpu", "cpugpu", "hybrid"}},
	{AlgAdaptiveHogbatch, "Adaptive", []string{"adaptive"}},
	{AlgAdaptiveLR, "AdaptiveLR", []string{"adaptive-lr", "adaptivelr"}},
	{AlgMinibatchCPU, "Minibatch CPU", []string{"minibatch-cpu"}},
	{AlgSSP, "SSP", []string{"ssp"}},
	{AlgLocalSGD, "LocalSGD", []string{"localsgd", "local-sgd"}},
	{AlgDCASGD, "DC-ASGD", []string{"dcasgd", "dc-asgd"}},
	{AlgTensorFlow, "TensorFlow", []string{"tf", "tensorflow"}},
	{AlgOmnivore, "Omnivore", []string{"omnivore"}},
	{AlgSVRG, "SVRG CPU+GPU", []string{"svrg"}},
}

// String returns the algorithm's display name as used in the figures.
func (a Algorithm) String() string {
	for _, e := range algorithms {
		if e.alg == a {
			return e.display
		}
	}
	return "unknown"
}

// ParseAlgorithm maps a CLI name to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, e := range algorithms {
		for _, n := range e.names {
			if n == name {
				return e.alg, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (valid: %s)", name, strings.Join(AlgorithmNames(), ", "))
}

// AlgorithmNames lists the canonical CLI names ParseAlgorithm accepts, in
// the order the -alg help text presents them.
func AlgorithmNames() []string {
	names := make([]string, len(algorithms))
	for i, e := range algorithms {
		names[i] = e.names[0]
	}
	return names
}

// WorkerConfig describes one worker thread: its device model, parallelism,
// batch-size range, and replica discipline.
type WorkerConfig struct {
	// Device is the worker's cost model; its Kind also selects the
	// worker implementation (CPU Hogbatch vs GPU mini-batch).
	Device device.Device
	// Threads is the CPU worker's intra-worker parallelism t (§VI-C):
	// each ExecuteWork batch splits into Threads sub-batches whose
	// gradients update the shared model independently. Ignored on GPUs.
	Threads int
	// InitialBatch, MinBatch, MaxBatch bound the worker's batch size
	// (Algorithm 2's min_b/max_b thresholds). For static algorithms
	// MinBatch == InitialBatch == MaxBatch.
	InitialBatch, MinBatch, MaxBatch int
	// DeepReplica makes a CPU worker's lanes read a copy of the model
	// taken at dispatch instead of the live model (an ablation of the
	// paper's reference replicas). Every other device steps on a private
	// copy whatever it says — the replica is the PCIe transfer buffer.
	DeepReplica bool
}

// Config fully specifies a training run.
type Config struct {
	// Algorithm selects the SGD variant (drives preset construction and
	// whether the adaptive policy is active).
	Algorithm Algorithm
	// Net and Dataset define the learning problem.
	Net     *nn.Network
	Dataset *data.Dataset
	// Workers lists the participating workers.
	Workers []WorkerConfig
	// BaseLR is the learning rate at RefBatch examples. When LRScaling
	// is set, a worker processing batches of b examples uses
	// BaseLR·min(b, LRScalingCap·RefBatch)/RefBatch following the
	// linear-scaling rule the paper adopts (§VI-B, Goyal et al.).
	BaseLR       float64
	RefBatch     int
	LRScaling    bool
	LRScalingCap float64
	// Alpha is Algorithm 2's batch-size scale factor (default 2).
	Alpha float64
	// Beta is Algorithm 2's surviving-update fraction for CPU workers
	// (default 1).
	Beta float64
	// UpdateMode selects atomic (race-free) or racy (paper-exact) shared
	// model writes.
	UpdateMode tensor.UpdateMode
	// StaleDamping scales a stale gradient's learning rate by
	// 1/(1+StaleDamping·staleUpdates), the §VI-B mitigation. 0 disables.
	// RunSim only: the live engines reject it.
	StaleDamping float64
	// StalenessBound is AlgSSP's bound s: the coordinator blocks fresh
	// dispatch to a worker whose clock (completed dispatches) is more than
	// s steps ahead of the slowest healthy worker. 0 is valid (near-BSP
	// lockstep). Other algorithms record staleness but never gate on it.
	StalenessBound int
	// LocalSteps is AlgLocalSGD's K: local SGD steps each worker takes on
	// its private replica per round before the coordinator averages the
	// replicas at the round barrier.
	LocalSteps int
	// DCLambda is AlgDCASGD's delay-compensation strength λ in
	// g + λ·g⊙g⊙(w_now − w_then); 0 degenerates to plain async apply.
	DCLambda float64
	// Optimizer selects the per-worker update rule (plain SGD by default;
	// momentum/AdaGrad/Adam via internal/opt, at its default
	// hyperparameters). Optimizer state is private to each worker thread.
	Optimizer opt.Kind
	// Schedule shapes the learning rate over epochs (constant by default;
	// see schedule.go for the fixed step, decay and warmup constants).
	Schedule LRSchedule
	// Seed drives model initialization and shuffling.
	Seed uint64
	// WeightDecay adds an L2 penalty: every gradient becomes
	// grad + WeightDecay·w (evaluated at the model the gradient was
	// computed against). 0 disables.
	WeightDecay float64
	// InitialParams warm-starts training from an existing model (e.g. a
	// checkpoint loaded with nn.LoadParamsFile); nil uses the seeded
	// Xavier initialization. The engines clone it, so the caller's copy
	// is never mutated.
	InitialParams *nn.Params
	// Shuffle reshuffles the training data between epochs.
	Shuffle bool
	// EvalSubset bounds the number of examples used per loss evaluation
	// (0 = full dataset). Loss evaluation time is excluded from the
	// convergence clock, following §VII-A.
	EvalSubset int
	// SampleEvery inserts additional loss samples at this virtual-time
	// period so slow algorithms produce curves before their first epoch
	// completes (Figure 5's Hogwild CPU line). 0 samples only at epochs.
	// RunSim only: the live engines sample at epoch barriers.
	SampleEvery time.Duration
	// EvalDevice performs the end-of-epoch loss computation (the paper
	// always uses the GPU, Figure 7); nil falls back to the first worker.
	EvalDevice device.Device
	// TargetLoss stops the run early once an evaluation reaches it
	// (early stopping; the paper's alternative stopping rule in §III:
	// "when there is no significant drop in the loss"). 0 disables.
	TargetLoss float64
	// Faults injects a seeded, deterministic fault plan — worker crashes,
	// hangs, gradient corruption — into the run (nil = no faults). Used
	// by the fault-injection harness to exercise every recovery path.
	Faults *faults.Plan
	// Elastic is a scripted membership schedule: workers join, gracefully
	// leave, or are evicted at completed-dispatch triggers (nil = fixed
	// membership). Joiners get fresh ids — slots are never reused — and the
	// scheduler rebalances Algorithm 2's counters on every change.
	Elastic *elastic.Plan
	// ElasticPolicy, when set, autoscales membership from load telemetry
	// (queue-wait vs compute span plus the device cost model) at epoch
	// barriers, bounded by MinWorkers/MaxWorkers. It composes with Elastic:
	// scripted events fire regardless of what the policy decides.
	ElasticPolicy elastic.Policy
	// MinWorkers and MaxWorkers bound the active-worker count for elastic
	// runs. MinWorkers ≤ 0 defaults to 1; MaxWorkers ≤ 0 defaults to the
	// initial count plus scripted joins (policy-driven growth disabled).
	MinWorkers int
	MaxWorkers int
	// Watchdog enables per-dispatch deadlines on every engine: a worker
	// exceeding max(modeled iteration time × Slack, Floor) is quarantined
	// and its batch re-dispatched to a healthy worker. nil disables the
	// watchdog.
	Watchdog *WatchdogConfig
	// Guards enables divergence protection: non-finite gradients are
	// dropped before reaching the shared model, and non-finite epoch
	// losses trigger checkpoint rollback with bounded LR-backoff retries
	// (the guard* constants in faulttolerance.go).
	Guards bool
	// SnapshotSink, when set, receives periodic deep copies of the shared
	// model while training runs — the serving subsystem's publish hook
	// (internal/serve.Publisher satisfies it). The engines own the copy
	// discipline: row by row under the writers' stripe locks against
	// UpdateAtomic writers (one row's stripe at a time, never the model),
	// the model read-lock in UpdateLocked mode, plain reads in UpdateRacy
	// mode (as unsynchronized as training itself, by design). The sink is
	// called from the coordinator, never from worker hot paths, and the
	// final model is always published before the run returns.
	SnapshotSink SnapshotSink
	// SnapshotEvery is the publish period (virtual time in RunSim, wall
	// time in RunReal). 0 with a non-nil sink publishes at epoch barriers
	// and run end only.
	SnapshotEvery time.Duration
	// CheckpointSink, when set, receives crash-consistent RunState
	// snapshots: at epoch barriers, on a wall-clock period in RunReal
	// (CheckpointEvery), and always on drain — including the drain after a
	// context cancellation, so an interrupted run's last checkpoint
	// reflects everything it completed. internal/checkpoint.Writer
	// satisfies it with versioned, checksummed, atomically-replaced files.
	CheckpointSink CheckpointSink
	// CheckpointEvery throttles periodic checkpoints (wall time; RunSim
	// ignores it and captures at its exact consistency points only). 0
	// with a non-nil sink checkpoints at every epoch barrier and on drain
	// only.
	CheckpointEvery time.Duration
	// Resume warm-starts the run from a RunState captured by a previous
	// run's CheckpointSink (e.g. loaded with checkpoint.Load): model
	// parameters, adaptive batch sizes, policy counters, LR schedule
	// position, shuffle RNG stream, and guard backoff are all restored, so
	// the deterministic simulated engine continues the exact trajectory
	// the interrupted run was on. Resume and InitialParams are mutually
	// exclusive (Resume carries its own parameters).
	Resume *RunState
	// Tracer, when set, records typed span events (schedule, queue wait,
	// gradient, apply, checkpoint, eval, snapshot) into per-worker ring
	// buffers for Chrome-trace export (`hogtrain -trace`). Build one shaped
	// for this config with NewRunTracer. Nil disables tracing at the cost
	// of one nil check per event — no allocation, no atomics.
	Tracer *telemetry.Tracer
	// Metrics, when set, surfaces live training counters and gauges
	// (train_updates_total, train_loss, msgq_* queue counters, ...) for
	// the /metrics exposition. Nil disables metric recording the same
	// compile-out-cheap way.
	Metrics *telemetry.Registry
}

// SnapshotSink receives model snapshots from a running engine. PublishParams
// takes ownership of params — it is a private deep copy the sink may retain
// indefinitely and must treat as immutable once published.
type SnapshotSink interface {
	PublishParams(params *nn.Params)
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Net == nil {
		return fmt.Errorf("core: config needs a network")
	}
	if c.Dataset == nil {
		return fmt.Errorf("core: config needs a dataset")
	}
	if err := c.Dataset.Validate(); err != nil {
		return err
	}
	if c.Net.Arch.InputDim != c.Dataset.Dim() {
		return fmt.Errorf("core: network input %d ≠ dataset dim %d", c.Net.Arch.InputDim, c.Dataset.Dim())
	}
	if len(c.Workers) == 0 {
		return fmt.Errorf("core: config needs at least one worker")
	}
	for i, w := range c.Workers {
		if w.Device == nil {
			return fmt.Errorf("core: worker %d has no device", i)
		}
		if w.MinBatch < 1 || w.MaxBatch < w.MinBatch {
			return fmt.Errorf("core: worker %d batch range [%d,%d] invalid", i, w.MinBatch, w.MaxBatch)
		}
		if w.InitialBatch < w.MinBatch || w.InitialBatch > w.MaxBatch {
			return fmt.Errorf("core: worker %d initial batch %d outside [%d,%d]", i, w.InitialBatch, w.MinBatch, w.MaxBatch)
		}
		if w.Device.Kind() == device.KindCPU && w.Threads < 1 {
			return fmt.Errorf("core: CPU worker %d needs Threads ≥ 1", i)
		}
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("core: base learning rate %v must be positive", c.BaseLR)
	}
	if c.Alpha <= 1 {
		return fmt.Errorf("core: alpha %v must exceed 1", c.Alpha)
	}
	if c.Beta <= 0 || c.Beta > 1 {
		return fmt.Errorf("core: beta %v outside (0,1]", c.Beta)
	}
	if err := c.Faults.Validate(len(c.Workers)); err != nil {
		return err
	}
	if err := c.Elastic.Validate(len(c.Workers)); err != nil {
		return err
	}
	if c.elasticEnabled() {
		if c.rounds() || c.svrgAnchor() {
			return fmt.Errorf("core: elastic membership is not supported for %s (fixed-participant structure)", c.Algorithm)
		}
		if c.MinWorkers > len(c.Workers) {
			return fmt.Errorf("core: min workers %d exceeds initial %d", c.MinWorkers, len(c.Workers))
		}
		if c.MaxWorkers > 0 && c.MaxWorkers < len(c.Workers) {
			return fmt.Errorf("core: max workers %d below initial %d", c.MaxWorkers, len(c.Workers))
		}
	}
	if c.sspGated() && c.StalenessBound < 0 {
		return fmt.Errorf("core: SSP staleness bound %d must be non-negative", c.StalenessBound)
	}
	if c.DCLambda < 0 {
		return fmt.Errorf("core: DC-ASGD lambda %v must be non-negative", c.DCLambda)
	}
	if c.rounds() {
		if c.roundSteps() < 1 {
			return fmt.Errorf("core: %s needs LocalSteps ≥ 1, got %d", c.Algorithm, c.LocalSteps)
		}
		if c.Optimizer != opt.KindSGD {
			return fmt.Errorf("core: %s supports plain SGD only (replica averaging has no optimizer-state semantics)", c.Algorithm)
		}
		if c.Faults != nil || c.Watchdog != nil {
			return fmt.Errorf("core: %s does not support fault injection or the watchdog (synchronous rounds have no re-dispatch path)", c.Algorithm)
		}
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("core: snapshot period %v must be non-negative", c.SnapshotEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: checkpoint period %v must be non-negative", c.CheckpointEvery)
	}
	if c.Resume != nil && c.InitialParams != nil {
		return fmt.Errorf("core: Resume and InitialParams are mutually exclusive")
	}
	if err := c.validateResume(); err != nil {
		return err
	}
	if c.Watchdog != nil && c.Watchdog.Slack < 0 {
		return fmt.Errorf("core: watchdog slack %v must be non-negative", c.Watchdog.Slack)
	}
	return nil
}

// LRFor returns the learning rate for batches of b examples under the
// linear-scaling rule, or BaseLR when scaling is disabled.
func (c *Config) LRFor(b int) float64 {
	if !c.LRScaling || c.RefBatch <= 0 {
		return c.BaseLR
	}
	scale := float64(b) / float64(c.RefBatch)
	if cap := c.LRScalingCap; cap > 0 && scale > cap {
		scale = cap
	}
	if scale < 1.0/float64(c.RefBatch) {
		scale = 1.0 / float64(c.RefBatch)
	}
	return c.BaseLR * scale
}

// Which algorithm uses which mechanism is decided here and nowhere else: the
// coordinator, the engines and the trackers ask these, never c.Algorithm.

// adaptive reports whether the batch-size policy (Algorithm 2) is active.
func (c *Config) adaptive() bool { return c.Algorithm == AlgAdaptiveHogbatch }

// adaptsLR reports whether the coordinator rebalances per-worker learning
// rates from the update counts instead.
func (c *Config) adaptsLR() bool { return c.Algorithm == AlgAdaptiveLR }

// sspGated reports whether StalenessBound arms the dispatch gate.
func (c *Config) sspGated() bool { return c.Algorithm == AlgSSP }

// delayCompensated reports whether deep-replica applies are steered by
// DCLambda.
func (c *Config) delayCompensated() bool { return c.Algorithm == AlgDCASGD }

// svrgAnchor reports whether the GPU computes anchor gradients for the CPU's
// variance-reduced updates.
func (c *Config) svrgAnchor() bool { return c.Algorithm == AlgSVRG }

// costModelOnly reports whether the algorithm differs from another only in
// its devices' virtual time, which only the simulated engine keeps.
func (c *Config) costModelOnly() bool {
	return c.Algorithm == AlgTensorFlow || c.Algorithm == AlgOmnivore
}

// rounds reports whether training proceeds in synchronous rounds: every
// participant steps a private replica from the same model and the
// coordinator averages the replicas once all are back.
func (c *Config) rounds() bool { return c.Algorithm == AlgLocalSGD || c.Algorithm == AlgOmnivore }

// roundSteps is the number of local steps in one round share.
func (c *Config) roundSteps() int {
	if c.Algorithm == AlgLocalSGD {
		return c.LocalSteps
	}
	return 1
}

// elasticEnabled reports whether membership can change during the run: a
// scripted plan, an autoscale policy, or (for the cluster engine, where
// joins arrive on the wire rather than from a script) headroom between the
// initial worker set and MaxWorkers.
func (c *Config) elasticEnabled() bool {
	return c.Elastic != nil || c.ElasticPolicy != nil || c.MaxWorkers > len(c.Workers)
}

// Capacity returns the maximum number of worker slots the run may ever
// hold: the initial workers plus every scripted join, or MaxWorkers when an
// autoscale policy may admit more. Per-worker state that cannot grow safely
// mid-run (tracer rings, transport link tables) is sized to Capacity up
// front so a joiner's fresh id indexes directly. Fixed-membership configs
// have Capacity() == len(Workers). Call it before the run mutates Workers —
// the engines capture it once at start.
func (c *Config) Capacity() int {
	n := len(c.Workers) + c.Elastic.Joins()
	if c.MaxWorkers > n {
		n = c.MaxWorkers
	}
	return n
}

// Preset bundles the paper's per-device batch thresholds (§VII-A: CPU 1–64
// examples per thread, GPU 64–8192).
type Preset struct {
	// CPUThreads is the CPU worker's update-thread count (paper: 56).
	CPUThreads int
	// CPUMinPerThread/CPUMaxPerThread bound the per-thread batch share.
	CPUMinPerThread, CPUMaxPerThread int
	// GPUMin/GPUMax bound the GPU batch size.
	GPUMin, GPUMax int
}

// DefaultPreset returns the paper's thresholds.
func DefaultPreset() Preset {
	return Preset{CPUThreads: 56, CPUMinPerThread: 1, CPUMaxPerThread: 64, GPUMin: 512, GPUMax: 8192}
}

// NewConfig assembles a Config for the given algorithm with the paper's
// hardware models and batch thresholds, a network matching ds, and sensible
// hyperparameter defaults. Callers tune BaseLR and horizon afterwards.
func NewConfig(alg Algorithm, net *nn.Network, ds *data.Dataset, p Preset) Config {
	cpu := device.NewXeon("cpu0", p.CPUThreads)
	gpu := device.NewV100("gpu0")
	cpuWorker := func(initialPerThread int, adaptive bool) WorkerConfig {
		minB, maxB := p.CPUThreads*p.CPUMinPerThread, p.CPUThreads*p.CPUMaxPerThread
		if !adaptive {
			minB, maxB = p.CPUThreads*initialPerThread, p.CPUThreads*initialPerThread
		}
		return WorkerConfig{
			Device: cpu, Threads: p.CPUThreads,
			InitialBatch: p.CPUThreads * initialPerThread, MinBatch: minB, MaxBatch: maxB,
		}
	}
	gpuWorker := func(initial int, adaptive bool) WorkerConfig {
		minB, maxB := p.GPUMin, p.GPUMax
		if !adaptive {
			minB, maxB = initial, initial
		}
		return WorkerConfig{
			Device: gpu, InitialBatch: initial, MinBatch: minB, MaxBatch: maxB,
		}
	}

	cfg := Config{
		Algorithm:    alg,
		Net:          net,
		Dataset:      ds,
		BaseLR:       0.05,
		RefBatch:     p.CPUThreads,
		LRScaling:    true,
		LRScalingCap: 16,
		Alpha:        2,
		Beta:         1,
		UpdateMode:   tensor.UpdateAtomic,
		Seed:         1,
		EvalSubset:   4096,
		EvalDevice:   gpu,
		// Consistency-mode defaults; only the matching algorithm reads them.
		StalenessBound: 4,
		LocalSteps:     4,
		DCLambda:       0.04,
	}
	switch alg {
	case AlgHogbatchCPU:
		cfg.Workers = []WorkerConfig{cpuWorker(p.CPUMinPerThread, false)}
	case AlgHogbatchGPU:
		cfg.Workers = []WorkerConfig{gpuWorker(p.GPUMax, false)}
	case AlgCPUGPUHogbatch, AlgAdaptiveLR, AlgSVRG, AlgDCASGD:
		// One device mix, static batches — CPU at Hogwild granularity, GPU at
		// the upper threshold (so an SVRG anchor gradient is as accurate as
		// possible). What differs is the mechanism on top: none, learning
		// rates adapted in place of batch sizes, the GPU's batch as the
		// variance-reduction anchor, the delay-compensated GPU apply.
		cfg.Workers = []WorkerConfig{cpuWorker(p.CPUMinPerThread, false), gpuWorker(p.GPUMax, false)}
	case AlgAdaptiveHogbatch:
		// Initial sizes per §VII-A: CPU at the lower threshold (Hogwild),
		// GPU at the upper threshold.
		cfg.Workers = []WorkerConfig{cpuWorker(p.CPUMinPerThread, true), gpuWorker(p.GPUMax, true)}
	case AlgMinibatchCPU:
		w := cpuWorker(8, false)
		w.Threads = 1 // single gradient over the whole batch
		cfg.Workers = []WorkerConfig{w}
	case AlgSSP:
		// SSP compares worker clocks step for step, so both devices use the
		// same batch size (the GPU floor); heterogeneity shows up as
		// different step durations, and the fast worker is parked once it
		// runs StalenessBound steps past the slowest.
		cfg.Workers = []WorkerConfig{
			{Device: cpu, Threads: p.CPUThreads, InitialBatch: p.GPUMin, MinBatch: p.GPUMin, MaxBatch: p.GPUMin},
			gpuWorker(p.GPUMin, false),
		}
	case AlgLocalSGD:
		// Private-replica rounds take one full-batch gradient per local
		// step, so the CPU worker runs a single lane.
		w := cpuWorker(8, false)
		w.Threads = 1
		cfg.Workers = []WorkerConfig{w, gpuWorker(p.GPUMax, false)}
	case AlgTensorFlow:
		// Hogbatch GPU's worker; the op-graph runtime only costs it time.
		w := gpuWorker(p.GPUMax, false)
		w.Device = tfbaseline.NewDevice(gpu, cpu)
		cfg.Workers = []WorkerConfig{w}
	case AlgOmnivore:
		// A round of GPUMax examples split once, by modeled speed. The barrier
		// takes the uniform mean of the two replicas, each stepped at the
		// linear rule's LRFor(bᵢ): with the rule's reference at half a round's
		// and its cap folded in, that mean is one step of the share-weighted
		// gradient Σ(bᵢ/B)·gᵢ at the rate Hogbatch GPU uses for a batch of B.
		cb, gb := device.SpeedSplit(net.Arch, p.GPUMax, cpu, gpu, 1)
		cfg.Workers = []WorkerConfig{
			{Device: cpu, Threads: 1, InitialBatch: cb, MinBatch: cb, MaxBatch: cb},
			gpuWorker(gb, false),
		}
		cfg.RefBatch = max(p.CPUThreads, int(float64(p.GPUMax)/cfg.LRScalingCap)) / 2
		cfg.LRScalingCap = 0
	}
	return cfg
}

// rngStream is the fixed PCG stream selector every run RNG uses; the model
// init stream and the coordinator's shuffle stream are independent instances
// of the same (seed, stream) source.
const rngStream = 0xda3e39cb94b95bdb

// RunRNG returns the deterministic random source a run with this seed uses
// for model initialization and shuffling: every algorithm at one seed starts
// from the identical model, as the paper's methodology requires ("all the
// algorithms are initialized with the same model", §VII-A).
func RunRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, rngStream))
}
