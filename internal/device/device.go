// Package device models the compute resources of the paper's testbed (an
// AWS p3.16xlarge: Intel Xeon sockets + NVIDIA Volta V100, Table I). The
// models produce *virtual* execution times for SGD iterations; the simulated
// engine advances its clock by these durations while the arithmetic of every
// iteration runs for real. Calibration targets the paper's headline ratio —
// a Hogwild CPU epoch is 236–317× slower than a large-batch GPU epoch
// (§VII-B) — and the utilization behaviour of Figure 7 (GPU ≈100% at batch
// 8192, ≈50% at the lower threshold; CPU ≈80%).
package device

import (
	"fmt"
	"math"
	"time"

	"heterosgd/internal/nn"
)

// Kind distinguishes CPU sockets from GPU accelerators.
type Kind int

const (
	// KindCPU is a multi-core CPU socket worker.
	KindCPU Kind = iota
	// KindGPU is a GPU accelerator worker.
	KindGPU
)

// String returns "cpu" or "gpu".
func (k Kind) String() string {
	if k == KindGPU {
		return "gpu"
	}
	return "cpu"
}

// Spec carries the Table I hardware description of a device.
type Spec struct {
	Name       string
	Kind       Kind
	Cores      int // physical cores (CPU) or cores per SM (GPU)
	SMs        int // streaming multiprocessors (GPU only)
	Threads    int // concurrent hardware threads (CPU) or threads per SM
	L1KB       int
	L2KB       int
	L3OrShared string // L3 cache (CPU) / shared memory (GPU)
	MemoryGB   int
}

// Device is a performance model consumed by the simulated engine.
type Device interface {
	// Name identifies the device in logs ("cpu0", "gpu0").
	Name() string
	// Kind reports CPU or GPU.
	Kind() Kind
	// IterTime returns the virtual duration of one ExecuteWork handling:
	// gradient computation over batchSize examples plus the model-update
	// cost (shared-memory write traffic on CPU; PCIe transfers + kernel
	// launches on GPU). modelBytes is the serialized parameter size.
	IterTime(arch nn.Arch, batchSize int, modelBytes int64) time.Duration
	// EvalTime returns the virtual duration of a forward-only loss
	// evaluation over n examples (the end-of-epoch loss computation the
	// paper always places on the GPU).
	EvalTime(arch nn.Arch, n int) time.Duration
	// Utilization returns the fraction of the device's peak throughput
	// achieved while processing batches of batchSize (Figure 7's y-axis).
	Utilization(arch nn.Arch, batchSize int) float64
	// Spec returns the Table I hardware description.
	Spec() Spec
}

// CPUDevice models one CPU socket running t-way Hogbatch: the batch is split
// into Threads sub-batches whose gradients are computed concurrently, each
// followed by a shared-model update that contends for memory bandwidth.
type CPUDevice struct {
	// DeviceName is the log identifier.
	DeviceName string
	// HW is the Table I description.
	HW Spec
	// WorkerThreads is the number of model-update threads assigned to
	// this worker (the paper assigns 56 of 64).
	WorkerThreads int
	// GemvFlops is per-thread throughput (FLOP/s) for single-example
	// (matrix-vector) gradient work — memory-bound, low.
	GemvFlops float64
	// GemmFlops is per-thread throughput for batched (matrix-matrix)
	// gradient work — cache-friendly, higher.
	GemmFlops float64
	// GemmSaturation is the per-thread sub-batch size at which GEMM
	// throughput is halfway between GemvFlops and GemmFlops.
	GemmSaturation float64
	// MemBandwidth is the socket's shared write bandwidth (B/s) that
	// model updates from all threads contend for.
	MemBandwidth float64
	// MaxUtilization caps reported utilization (the paper's CPU hovers
	// near 80% because only 56 of 64 threads participate).
	MaxUtilization float64
}

// NewXeon returns the paper's CPU socket model (Table I: 18 cores, 36
// threads per socket; the framework assigns 56 worker threads across the
// two sockets, which we model as a single socket-pair device).
func NewXeon(name string, workerThreads int) *CPUDevice {
	if workerThreads <= 0 {
		workerThreads = 56
	}
	return &CPUDevice{
		DeviceName: name,
		HW: Spec{
			Name: "Intel Xeon (2 sockets)", Kind: KindCPU,
			Cores: 18, Threads: 36, L1KB: 32, L2KB: 256,
			L3OrShared: "45 MB", MemoryGB: 488,
		},
		WorkerThreads:  workerThreads,
		GemvFlops:      1.6e9,
		GemmFlops:      9e9,
		GemmSaturation: 16,
		MemBandwidth:   120e9,
		MaxUtilization: 0.875, // 56 of 64 threads
	}
}

// Name implements Device.
func (d *CPUDevice) Name() string { return d.DeviceName }

// Kind implements Device.
func (d *CPUDevice) Kind() Kind { return KindCPU }

// Spec implements Device.
func (d *CPUDevice) Spec() Spec { return d.HW }

// threadFlops interpolates per-thread throughput between GEMV and GEMM
// regimes as the per-thread sub-batch grows.
func (d *CPUDevice) threadFlops(subBatch float64) float64 {
	if subBatch <= 1 {
		return d.GemvFlops
	}
	// Saturating interpolation: at subBatch = GemmSaturation the thread
	// reaches the midpoint between GEMV and GEMM throughput.
	frac := subBatch / (subBatch + d.GemmSaturation)
	return d.GemvFlops + float64((d.GemmFlops-d.GemvFlops)*frac)
}

// IterTime implements Device. The batch is split into WorkerThreads
// sub-batches processed concurrently (inter-thread Hogbatch); each thread
// then writes its gradient into the shared model, contending for
// MemBandwidth with every other thread.
func (d *CPUDevice) IterTime(arch nn.Arch, batchSize int, modelBytes int64) time.Duration {
	if batchSize <= 0 {
		return 0
	}
	t := d.WorkerThreads
	sub := float64(batchSize) / float64(t)
	if batchSize < t {
		// Fewer examples than threads: idle threads, sub-batch of 1.
		sub = 1
		t = batchSize
	}
	compute := sub * arch.FlopsPerExample() / d.threadFlops(sub)
	// Every thread writes its gradient (modelBytes) and reads the model
	// (another modelBytes) per sub-batch update, sharing bandwidth. Sparse
	// input shrinks the first-layer share of that traffic: the partial
	// update only touches the columns the sub-batch's nonzeros hit.
	writers := float64(t)
	updateBytes := 2 * effectiveModelBytes(arch, modelBytes, sub)
	update := updateBytes / (d.MemBandwidth / writers)
	return secondsToDuration(compute + update)
}

// effectiveModelBytes discounts the first-layer portion of model-update
// traffic by the union density of a b-example batch: with per-example
// density p, a batch touches 1−(1−p)^b of the input columns, and the sparse
// gradient path reads/writes only those. Dense architectures return
// modelBytes unchanged.
func effectiveModelBytes(arch nn.Arch, modelBytes int64, b float64) float64 {
	p := arch.Density()
	if p >= 1 {
		return float64(modelBytes)
	}
	dims := arch.LayerDims()
	firstBytes := float64(dims[0]) * float64(dims[1]) * 8
	union := 1 - math.Pow(1-p, b)
	return float64(modelBytes) - float64(firstBytes*(1-union))
}

// EvalTime implements Device: forward-only pass at GEMM throughput with all
// threads cooperating.
func (d *CPUDevice) EvalTime(arch nn.Arch, n int) time.Duration {
	flops := float64(n) * arch.FlopsPerExample() / 3 // forward ≈ ⅓ of fwd+bwd
	return secondsToDuration(flops / (d.GemmFlops * float64(d.WorkerThreads)))
}

// Utilization implements Device: the CPU keeps WorkerThreads of the
// machine's threads busy regardless of batch size; larger per-thread
// sub-batches shift work from memory-bound updates to compute, which the
// paper reports as a slight utilization *decrease* (fewer concurrent update
// bursts). We model utilization as the active-thread fraction scaled by
// compute intensity.
func (d *CPUDevice) Utilization(arch nn.Arch, batchSize int) float64 {
	if batchSize <= 0 {
		return 0
	}
	sub := float64(batchSize) / float64(d.WorkerThreads)
	if sub < 1 {
		return d.MaxUtilization * float64(batchSize) / float64(d.WorkerThreads)
	}
	// Mild decay with larger batches (paper: "slight decrease on Adaptive
	// is due to the larger batch sizes").
	decay := 1 - 0.08*sub/(sub+32)
	return d.MaxUtilization * decay
}

// GPUDevice models a V100-class accelerator: high peak throughput reached
// only at large batch sizes, explicit PCIe transfers for the model replica
// (deep copy down and up every iteration) and the batch data, and per-kernel
// launch overhead.
type GPUDevice struct {
	// DeviceName is the log identifier.
	DeviceName string
	// HW is the Table I description.
	HW Spec
	// PeakFlops is the device's peak throughput (FLOP/s).
	PeakFlops float64
	// HalfBatch is the batch size at which the efficiency curve reaches
	// 50% of peak (Figure 7: lower batch threshold ⇒ ~50% utilization).
	HalfBatch float64
	// PCIeBandwidth and PCIeLatency model host↔device transfers.
	PCIeBandwidth float64
	PCIeLatency   time.Duration
	// KernelLaunch is the fixed overhead per kernel invocation; each
	// layer's forward+backward costs about six kernels.
	KernelLaunch time.Duration
}

// NewV100 returns the paper's NVIDIA Volta V100 model (Table I).
func NewV100(name string) *GPUDevice {
	return &GPUDevice{
		DeviceName: name,
		HW: Spec{
			Name: "NVIDIA Volta V100", Kind: KindGPU,
			Cores: 172, SMs: 80, Threads: 2048, L1KB: 128, L2KB: 6144,
			L3OrShared: "96 KB", MemoryGB: 16,
		},
		PeakFlops:     14e12,
		HalfBatch:     512,
		PCIeBandwidth: 12e9,
		PCIeLatency:   10 * time.Microsecond,
		KernelLaunch:  5 * time.Microsecond,
	}
}

// Name implements Device.
func (d *GPUDevice) Name() string { return d.DeviceName }

// Kind implements Device.
func (d *GPUDevice) Kind() Kind { return KindGPU }

// Spec implements Device.
func (d *GPUDevice) Spec() Spec { return d.HW }

// efficiency is the saturating batch-size→throughput curve: b/(b+HalfBatch).
func (d *GPUDevice) efficiency(batchSize int) float64 {
	b := float64(batchSize)
	return b / (b + d.HalfBatch)
}

// IterTime implements Device: model deep-copy down, batch data down,
// kernels, updated replica back up.
func (d *GPUDevice) IterTime(arch nn.Arch, batchSize int, modelBytes int64) time.Duration {
	if batchSize <= 0 {
		return 0
	}
	flops := float64(batchSize) * arch.FlopsPerExample()
	compute := flops / (d.PeakFlops * d.efficiency(batchSize))
	kernels := float64(float64(arch.NumLayers()*6) * d.KernelLaunch.Seconds())
	// Sparse batches cross PCIe in CSR form (16 B per nonzero); the model
	// replica itself stays dense either way.
	batchBytes := float64(float64(batchSize) * arch.InputBytesPerExample())
	transfer := (float64(2*float64(modelBytes)) + batchBytes) / d.PCIeBandwidth
	latency := float64(3 * d.PCIeLatency.Seconds()) // model down, batch down, model up
	return secondsToDuration(compute + kernels + transfer + latency)
}

// EvalTime implements Device: forward-only kernels over n examples, streamed
// in resident memory (the paper keeps intermediate output on the GPU).
func (d *GPUDevice) EvalTime(arch nn.Arch, n int) time.Duration {
	flops := float64(n) * arch.FlopsPerExample() / 3
	compute := flops / (d.PeakFlops * d.efficiency(n))
	kernels := float64(float64(arch.NumLayers()*2) * d.KernelLaunch.Seconds())
	batchBytes := float64(n) * arch.InputBytesPerExample()
	transfer := batchBytes/d.PCIeBandwidth + d.PCIeLatency.Seconds()
	return secondsToDuration(compute + kernels + transfer)
}

// Utilization implements Device: the efficiency curve itself — ≈50% at
// HalfBatch, ≈94% at 8192 with the default HalfBatch of 512.
func (d *GPUDevice) Utilization(arch nn.Arch, batchSize int) float64 {
	return d.efficiency(batchSize)
}

// OpTime returns the duration of one linear-algebra primitive of the given
// FLOP count with all worker threads cooperating (the op-level granularity
// used by the TensorFlow baseline).
func (d *CPUDevice) OpTime(flops float64) time.Duration {
	return secondsToDuration(flops / (d.GemmFlops * float64(d.WorkerThreads)))
}

// OpTime returns the duration of one kernel of the given FLOP count at the
// given batch size: launch overhead plus compute at the efficiency curve.
func (d *GPUDevice) OpTime(flops float64, batchSize int) time.Duration {
	return d.KernelLaunch + secondsToDuration(flops/(d.PeakFlops*d.efficiency(batchSize)))
}

// Transfer returns the host↔device PCIe time for bytes.
func (d *GPUDevice) Transfer(bytes int64) time.Duration {
	return d.PCIeLatency + secondsToDuration(float64(bytes)/d.PCIeBandwidth)
}

// SpeedSplit is the static batch plan of an Omnivore-style system (§II): the
// total examples of one synchronized round divided between cpu and gpu in
// proportion to the throughput their cost models predict at an even share.
// gpuSkew is the planner's error — it believes the GPU gpuSkew× as fast as
// the model says (1 = exact; the paper's critique is that production
// estimates are not). The shares sum to total and each is at least 1.
func SpeedSplit(arch nn.Arch, total int, cpu, gpu Device, gpuSkew float64) (cpuBatch, gpuBatch int) {
	modelBytes := int64(arch.NumParameters()) * 8
	probe := max(total/2, 1)
	cpuRate := float64(probe) / cpu.IterTime(arch, probe, modelBytes).Seconds()
	gpuRate := float64(float64(probe) / gpu.IterTime(arch, probe, modelBytes).Seconds() * gpuSkew)
	cpuBatch = int(float64(cpuRate/(cpuRate+gpuRate)*float64(total)) + 0.5)
	cpuBatch = min(max(cpuBatch, 1), total-1)
	return cpuBatch, total - cpuBatch
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// TableI renders the hardware-specification table (Table I) for a CPU and a
// GPU device side by side.
func TableI(cpu, gpu Device) string {
	cs, gs := cpu.Spec(), gpu.Spec()
	out := fmt.Sprintf("%-26s %-18s %s\n", "", "CPU", "GPU")
	out += fmt.Sprintf("%-26s %-18d %d per MP\n", "cores", cs.Cores, gs.Cores)
	out += fmt.Sprintf("%-26s %-18s %d per MP\n", "blocks", "—", 32)
	out += fmt.Sprintf("%-26s %-18d %d per MP\n", "threads", cs.Threads, gs.Threads)
	out += fmt.Sprintf("%-26s %-18s %d KB\n", "L1 cache", fmt.Sprintf("%d(D) KB", cs.L1KB), gs.L1KB)
	out += fmt.Sprintf("%-26s %-18s %d MB\n", "L2 cache", fmt.Sprintf("%d KB", cs.L2KB), gs.L2KB/1024)
	out += fmt.Sprintf("%-26s %-18s %s\n", "L3 cache / shared memory", cs.L3OrShared, gs.L3OrShared)
	out += fmt.Sprintf("%-26s %-18s %d GB\n", "MEMORY / global memory", fmt.Sprintf("%d GB", cs.MemoryGB), gs.MemoryGB)
	return out
}
