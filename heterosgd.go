// Package heterosgd is a deep-learning training framework for heterogeneous
// CPU+GPU architectures, reproducing "Adaptive Stochastic Gradient Descent
// for Deep Learning on Heterogeneous CPU+GPU Architectures" (Ma, Rusu, Wu,
// Sim — IPPS 2021).
//
// The framework trains fully-connected networks with a family of
// asynchronous SGD algorithms coordinated across a many-thread CPU worker
// and a large-batch GPU worker sharing one model:
//
//   - Hogbatch CPU (Hogwild at one example per thread),
//   - Hogbatch GPU (large-batch mini-batch SGD),
//   - CPU+GPU Hogbatch (static small CPU batches + large GPU batches),
//   - Adaptive Hogbatch (batch sizes continuously rebalanced from live
//     per-worker update counts — the paper's Algorithm 2),
//
// plus the paper's comparators — a TensorFlow-style op-graph device model and
// Omnivore-style lockstep rounds — as two more algorithms of the same engine.
//
// Two engines execute the identical algorithm code: RunReal uses goroutines
// and the wall clock (the live system), while RunSim runs the same
// arithmetic on a virtual clock driven by calibrated Xeon/V100 cost models,
// reproducing the paper's 236–317× CPU/GPU epoch-speed gap on any host.
//
// Quick start:
//
//	spec := heterosgd.CovtypeSpec.Scaled(0.01)
//	ds := heterosgd.Generate(spec, 1)
//	net := heterosgd.MustNetwork(spec.Arch())
//	cfg := heterosgd.NewConfig(heterosgd.AlgAdaptiveHogbatch, net, ds, heterosgd.DefaultPreset())
//	res, err := heterosgd.RunSim(context.Background(), cfg, time.Second)
//
// See examples/ for complete programs and cmd/hogbench for the paper's
// tables and figures.
package heterosgd

import (
	"context"
	"math/rand/v2"
	"time"

	"heterosgd/internal/checkpoint"
	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/faults"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
	"heterosgd/internal/opt"
)

// Algorithm selection (see core.Algorithm).
type Algorithm = core.Algorithm

// The paper's SGD variants.
const (
	AlgHogbatchCPU      = core.AlgHogbatchCPU
	AlgHogbatchGPU      = core.AlgHogbatchGPU
	AlgCPUGPUHogbatch   = core.AlgCPUGPUHogbatch
	AlgAdaptiveHogbatch = core.AlgAdaptiveHogbatch
	AlgMinibatchCPU     = core.AlgMinibatchCPU
	AlgTensorFlow       = core.AlgTensorFlow
	AlgAdaptiveLR       = core.AlgAdaptiveLR
	AlgOmnivore         = core.AlgOmnivore
	AlgSVRG             = core.AlgSVRG
	AlgSSP              = core.AlgSSP
	AlgLocalSGD         = core.AlgLocalSGD
	AlgDCASGD           = core.AlgDCASGD
)

// Training configuration and results.
type (
	// Config fully specifies a training run.
	Config = core.Config
	// WorkerConfig describes one worker.
	WorkerConfig = core.WorkerConfig
	// Preset bundles per-device batch thresholds.
	Preset = core.Preset
	// Result captures a finished run's measurements.
	Result = core.Result
	// StalenessReport summarizes applied-update staleness (Result.Staleness).
	StalenessReport = core.StalenessReport
	// Busy is one device-busy interval of Result.Utilization.
	Busy = metrics.Busy
)

// UtilizationSeries bins a device's busy intervals (Result.Utilization[device])
// into per-bin utilization over [0, horizon), Figure 7's series.
func UtilizationSeries(busy []Busy, horizon, bin time.Duration) []float64 {
	return metrics.Series(busy, horizon, bin)
}

// MeanUtilization returns a device's average utilization over [0, horizon).
func MeanUtilization(busy []Busy, horizon time.Duration) float64 {
	return metrics.MeanUtilization(busy, horizon)
}

// Network types.
type (
	// Arch describes an MLP topology.
	Arch = nn.Arch
	// Network is a validated topology.
	Network = nn.Network
	// Params holds model weights.
	Params = nn.Params
)

// Dataset types.
type (
	// Dataset is an in-memory training set.
	Dataset = data.Dataset
	// SynthSpec describes a synthetic dataset shape.
	SynthSpec = data.SynthSpec
	// LIBSVMOptions controls LIBSVM parsing.
	LIBSVMOptions = data.LIBSVMOptions
)

// Shape specifications of the paper's four datasets (Table II).
var (
	CovtypeSpec   = data.Covtype
	W8aSpec       = data.W8a
	DeliciousSpec = data.Delicious
	RealSimSpec   = data.RealSim
)

// ParseAlgorithm maps a name ("adaptive", "cpu+gpu", …) to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) { return core.ParseAlgorithm(name) }

// DefaultPreset returns the paper's batch thresholds (§VII-A).
func DefaultPreset() Preset { return core.DefaultPreset() }

// NewConfig assembles a ready-to-run configuration for an algorithm.
func NewConfig(alg Algorithm, net *Network, ds *Dataset, p Preset) Config {
	return core.NewConfig(alg, net, ds, p)
}

// RunSim trains on the simulated CPU+GPU machine for a virtual-time budget.
// Cancelling ctx stops scheduling, drains in-flight work, and returns the
// partial Result with Interrupted set.
func RunSim(ctx context.Context, cfg Config, horizon time.Duration) (*Result, error) {
	return core.RunSim(ctx, cfg, horizon)
}

// RunReal trains with live goroutines for a wall-clock budget. Cancelling
// ctx stops scheduling, drains in-flight work, and returns the partial
// Result with Interrupted set.
func RunReal(ctx context.Context, cfg Config, budget time.Duration) (*Result, error) {
	return core.RunReal(ctx, cfg, budget)
}

// Optimizer selection for Config.Optimizer.
type OptimizerKind = opt.Kind

// Update rules available to workers.
const (
	OptSGD      = opt.KindSGD
	OptMomentum = opt.KindMomentum
	OptAdaGrad  = opt.KindAdaGrad
	OptAdam     = opt.KindAdam
)

// LRSchedule shapes the learning rate over epochs (Config.Schedule).
type LRSchedule = core.LRSchedule

// Learning-rate schedules.
const (
	ScheduleConstant = core.ScheduleConstant
	ScheduleStep     = core.ScheduleStep
	ScheduleInvT     = core.ScheduleInvT
	ScheduleWarmup   = core.ScheduleWarmup
)

// Generate materializes a synthetic dataset from a shape specification.
func Generate(spec SynthSpec, seed uint64) *Dataset { return data.Generate(spec, seed) }

// GenerateCSR materializes the same synthetic dataset as Generate but keeps
// the features in compressed sparse row form — required for very wide inputs
// like real-sim's native 20,958 dims (DESIGN.md §9).
func GenerateCSR(spec SynthSpec, seed uint64) *Dataset { return data.GenerateCSR(spec, seed) }

// ReadLIBSVMFile loads a LIBSVM-format dataset (e.g. the real covtype).
func ReadLIBSVMFile(path string, opts LIBSVMOptions) (*Dataset, error) {
	return data.ReadLIBSVMFile(path, opts)
}

// MustNetwork builds a Network from a statically-known architecture.
func MustNetwork(arch Arch) *Network { return nn.MustNetwork(arch) }

// NewNetwork builds and validates a Network.
func NewNetwork(arch Arch) (*Network, error) { return nn.NewNetwork(arch) }

// NewRNG returns the deterministic random source used by runs with the
// given seed.
func NewRNG(seed uint64) *rand.Rand { return core.RunRNG(seed) }

// NewMultiConfig assembles a topology with several CPU sockets and GPUs
// (the paper's future work).
func NewMultiConfig(alg Algorithm, net *Network, ds *Dataset, p Preset, numCPU, numGPU int) (Config, error) {
	return core.NewMultiConfig(alg, net, ds, p, numCPU, numGPU)
}

// Fault tolerance: both engines recover worker crashes (re-dispatching
// in-flight batches to survivors), quarantine hung workers via watchdog
// deadlines (Config.Watchdog), and guard against divergence by dropping
// non-finite updates and rolling back to checkpoints (Config.Guards).
// Config.Faults injects deterministic crashes/hangs/corruption for testing.
type (
	// FaultPlan schedules deterministic fault injection (Config.Faults).
	FaultPlan = faults.Plan
	// Fault is one scheduled fault.
	Fault = faults.Fault
	// WatchdogConfig sets per-dispatch deadlines (Config.Watchdog).
	WatchdogConfig = core.WatchdogConfig
	// FaultReport summarizes a run's fault-tolerance events (Result.Health).
	FaultReport = core.FaultReport
	// WorkerHealth is one worker's record inside a FaultReport.
	WorkerHealth = core.WorkerHealth
)

// Worker health states reported in FaultReport.
const (
	WorkerHealthy     = core.WorkerHealthy
	WorkerQuarantined = core.WorkerQuarantined
	WorkerCrashed     = core.WorkerCrashed
)

// NewFaultPlan builds a seeded fault-injection plan.
func NewFaultPlan(seed uint64, fs ...Fault) *FaultPlan { return faults.NewPlan(seed, fs...) }

// ParseFaultPlan parses a "crash:W:N,hang:W:N:DUR,corrupt:W:RATE" spec
// (the hogtrain -faults syntax).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// CrashAfter schedules a worker panic at its n-th iteration.
func CrashAfter(worker int, n int64) Fault { return faults.CrashAfter(worker, n) }

// HangAfter schedules a one-shot stall of d at a worker's n-th iteration.
func HangAfter(worker int, n int64, d time.Duration) Fault { return faults.HangAfter(worker, n, d) }

// CorruptGradient poisons a worker's gradients with NaNs at the given rate.
func CorruptGradient(worker int, rate float64) Fault { return faults.CorruptGradient(worker, rate) }

// DefaultWatchdog returns the permissive wall-clock watchdog policy.
func DefaultWatchdog() *WatchdogConfig { return core.DefaultWatchdog() }

// SaveModel writes trained parameters to a checkpoint file.
func SaveModel(path string, p *Params) error { return nn.SaveParamsFile(path, p) }

// LoadModel reads a checkpoint for the network (use Config.InitialParams
// to warm-start a run from it).
func LoadModel(path string, net *Network) (*Params, error) { return nn.LoadParamsFile(path, net) }

// Run lifecycle: both engines observe context cancellation (stop scheduling,
// drain in-flight work, return the partial Result with Interrupted set),
// emit crash-consistent run-state checkpoints through Config.CheckpointSink,
// and warm-start from one via Config.Resume — restoring the model, adaptive
// batch sizes, policy counters, LR schedule position, and shuffle RNG, so a
// resumed deterministic run continues the interrupted trajectory exactly.
type (
	// RunState is a complete snapshot of a run's mutable state
	// (Config.Resume, Config.CheckpointSink).
	RunState = core.RunState
	// CheckpointSink receives RunState snapshots from a running engine.
	CheckpointSink = core.CheckpointSink
	// CheckpointWriter persists run states to a file with keep-last-N
	// rotation (a ready-made CheckpointSink).
	CheckpointWriter = checkpoint.Writer
)

// SaveRunState writes a run-state checkpoint to path atomically.
func SaveRunState(path string, st *RunState) error { return checkpoint.Save(path, st) }

// LoadRunState reads the run-state checkpoint at path for the network.
func LoadRunState(path string, net *Network) (*RunState, error) {
	return checkpoint.Load(path, net)
}

// LoadLatestRunState reads path, falling back through up to keep-1 rotated
// generations (path.1, path.2, …) when the newest is missing or corrupt.
func LoadLatestRunState(path string, keep int, net *Network) (*RunState, error) {
	return checkpoint.LoadLatest(path, keep, net)
}
