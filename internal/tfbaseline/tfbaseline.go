// Package tfbaseline reproduces the paper's TensorFlow comparator (§II,
// §VII) as a device cost model: a single synchronous mini-batch SGD instance
// executed through an op-level dataflow graph whose primitives are
// individually placed on the CPU or the GPU by estimated execution time, with
// explicit transfer costs when consecutive ops land on different devices.
//
// The paper observes that (a) TensorFlow's convergence mirrors Hogbatch GPU
// almost identically — both are mini-batch SGD over the same batch stream —
// and (b) TensorFlow collapses on delicious because its multi-label output
// path is much slower (983 labels vs 2). Both follow from the construction:
// core.NewConfig(AlgTensorFlow) is Hogbatch GPU's worker on this package's
// Device, so the arithmetic is Hogbatch GPU's, and only the virtual clock
// differs — per-op scheduling overhead plus a per-label output cost that
// only matters when OutputDim is large.
package tfbaseline

import (
	"fmt"
	"time"

	"heterosgd/internal/device"
	"heterosgd/internal/nn"
)

// Placement records where an op ran.
type Placement int

const (
	// PlaceCPU runs the op on the CPU model.
	PlaceCPU Placement = iota
	// PlaceGPU runs the op on the GPU model.
	PlaceGPU
)

// String returns "cpu" or "gpu".
func (p Placement) String() string {
	if p == PlaceGPU {
		return "gpu"
	}
	return "cpu"
}

// Op is one linear-algebra primitive in the iteration graph.
type Op struct {
	// Name identifies the op ("fwd_matmul_2", "bwd_dW_0", …).
	Name string
	// Flops is the op's floating-point cost.
	Flops float64
	// OutputBytes is the size of the tensor the op produces (charged as a
	// transfer when the consumer runs on the other device).
	OutputBytes int64
	// Placement is filled in by the scheduler.
	Placement Placement
	// Cost is the op's simulated duration including any transfer-in.
	Cost time.Duration
}

// Device is the V100 as the TensorFlow 1.13 runtime drives it. Everything but
// the iteration time is the GPU's own: the worker is a GPU worker, and loss
// evaluation and utilization follow the V100's curves.
type Device struct {
	*device.GPUDevice
	// CPU is the host model the placer weighs each op against.
	CPU *device.CPUDevice
	// OpOverhead is the per-op scheduling cost of the dataflow runtime.
	OpOverhead time.Duration
	// PerLabelCost is the extra output-path cost per label (per 256
	// batch rows) for multi-label objectives — the delicious anomaly
	// (§VII-B). The cost scales with the batch because TF 1.x's
	// multi-label path touches every (example, label) pair.
	PerLabelCost time.Duration
}

// NewDevice wraps gpu with the paper-era TensorFlow characteristics: a
// microsecond of per-op scheduling overhead, and a per-label output cost that
// is negligible at 2 labels and dominant at 983.
func NewDevice(gpu *device.GPUDevice, cpu *device.CPUDevice) *Device {
	return &Device{GPUDevice: gpu, CPU: cpu, OpOverhead: time.Microsecond, PerLabelCost: 2 * time.Microsecond}
}

// BuildGraph constructs the per-iteration op sequence for the network at
// the given batch size: forward matmul/bias/activation per layer, the loss
// op, and backward dW/dX/bias ops per layer, in dependency order. The
// sequential chain is exactly the structure the paper criticizes: "the
// amount of overlap between CPU and GPU execution is limited by the
// sequential structure of the DNN".
func BuildGraph(arch nn.Arch, batch int) []*Op {
	dims := arch.LayerDims()
	var ops []*Op
	add := func(name string, flops float64, outRows, outCols int) {
		ops = append(ops, &Op{Name: name, Flops: flops, OutputBytes: int64(outRows*outCols) * 8})
	}
	b := float64(batch)
	// Forward.
	for l := 0; l+1 < len(dims); l++ {
		in, out := float64(dims[l]), float64(dims[l+1])
		add(fmt.Sprintf("fwd_matmul_%d", l), 2*b*in*out, batch, dims[l+1])
		add(fmt.Sprintf("fwd_bias_%d", l), b*out, batch, dims[l+1])
		if l+2 < len(dims) {
			add(fmt.Sprintf("fwd_act_%d", l), 4*b*out, batch, dims[l+1])
		}
	}
	// Loss gradient at the output.
	add("loss_grad", 6*b*float64(dims[len(dims)-1]), batch, dims[len(dims)-1])
	// Backward.
	for l := len(dims) - 2; l >= 0; l-- {
		in, out := float64(dims[l]), float64(dims[l+1])
		add(fmt.Sprintf("bwd_dW_%d", l), 2*b*in*out, dims[l+1], dims[l])
		add(fmt.Sprintf("bwd_db_%d", l), b*out, 1, dims[l+1])
		if l > 0 {
			add(fmt.Sprintf("bwd_dX_%d", l), 2*b*in*out, batch, dims[l])
			add(fmt.Sprintf("bwd_actgrad_%d", l), 3*b*in, batch, dims[l])
		}
		add(fmt.Sprintf("apply_%d", l), 2*in*out, dims[l+1], dims[l])
	}
	return ops
}

// ScheduleGraph assigns each op to the device with the lower estimated
// completion time — compute plus a PCIe transfer when the previous op's
// output lives on the other device — and returns the iteration's total
// duration. This is the paper's description of TensorFlow's placement: "the
// decision on where to perform a primitive depends on the estimated
// execution time for each device … switching between CPU and GPU introduces
// time-consuming data transfers".
func (d *Device) ScheduleGraph(ops []*Op, batch int) time.Duration {
	total := time.Duration(0)
	loc := PlaceGPU // batch starts on the GPU after the initial upload
	var prevBytes int64
	for _, op := range ops {
		cpuCost := d.CPU.OpTime(op.Flops) + d.OpOverhead
		gpuCost := d.OpTime(op.Flops, batch) + d.OpOverhead
		if loc == PlaceGPU {
			cpuCost += d.Transfer(prevBytes)
		} else {
			gpuCost += d.Transfer(prevBytes)
		}
		if cpuCost < gpuCost {
			op.Placement = PlaceCPU
			op.Cost = cpuCost
			loc = PlaceCPU
		} else {
			op.Placement = PlaceGPU
			op.Cost = gpuCost
			loc = PlaceGPU
		}
		total += op.Cost
		prevBytes = op.OutputBytes
	}
	return total
}

// IterTime implements device.Device: the virtual duration of one synchronous
// iteration — the batch upload, the scheduled graph, and the multi-label
// output penalty. The model never crosses PCIe (TensorFlow keeps its
// variables resident), so modelBytes does not enter.
func (d *Device) IterTime(arch nn.Arch, batch int, _ int64) time.Duration {
	upload := d.Transfer(int64(batch*arch.InputDim) * 8)
	graph := d.ScheduleGraph(BuildGraph(arch, batch), batch)
	var labelPenalty time.Duration
	if arch.MultiLabel {
		perBlock := time.Duration(arch.OutputDim) * d.PerLabelCost
		blocks := float64(batch) / 256
		labelPenalty = time.Duration(float64(perBlock) * blocks)
	}
	return upload + graph + labelPenalty
}
