package core

import (
	"fmt"
	"slices"

	"heterosgd/internal/data"
	"heterosgd/internal/device"
	"heterosgd/internal/nn"
	"heterosgd/internal/tfbaseline"
)

// NewMultiConfig assembles a heterogeneous configuration with numCPU CPU
// socket workers and numGPU GPU workers — the multi-device topology of the
// paper's Figures 2–3 and its stated future work ("we plan to scale these
// algorithms to multi-GPU architectures"). Worker devices are named
// cpu0…cpuN, gpu0…gpuM. The scheduling, adaptive policy, and both engines
// are worker-count agnostic, so everything from NewConfig carries over: the
// result is NewConfig's with only Workers and EvalDevice replaced. Each
// device's worker is NewConfig's worker of that kind — batches, threads,
// device model — or CPU+GPU Hogbatch's when the algorithm has none.
//
// CPU threads are divided evenly across the socket workers (the paper's
// single 56-thread worker becomes e.g. 2×28), and the CPU batches with them,
// so total CPU parallelism is held constant while the update streams
// multiply.
func NewMultiConfig(alg Algorithm, net *nn.Network, ds *data.Dataset, p Preset, numCPU, numGPU int) (Config, error) {
	if numCPU < 0 || numGPU < 0 || numCPU+numGPU == 0 {
		return Config{}, fmt.Errorf("core: topology needs at least one worker (got %d CPU + %d GPU)", numCPU, numGPU)
	}
	cfg := NewConfig(alg, net, ds, p)
	kinds := slices.Concat(cfg.Workers, NewConfig(AlgCPUGPUHogbatch, net, ds, p).Workers)
	like := func(k device.Kind) WorkerConfig {
		return kinds[slices.IndexFunc(kinds, func(w WorkerConfig) bool { return w.Device.Kind() == k })]
	}
	cfg.Workers, cfg.EvalDevice = nil, nil
	for i := 0; i < numCPU; i++ {
		threadsPer := max(1, p.CPUThreads/numCPU)
		split := func(b int) int { return max(1, b*threadsPer/p.CPUThreads) }
		w := like(device.KindCPU)
		w.Device = device.NewXeon(fmt.Sprintf("cpu%d", i), threadsPer)
		w.Threads = max(1, w.Threads/numCPU)
		w.InitialBatch, w.MinBatch, w.MaxBatch = split(w.InitialBatch), split(w.MinBatch), split(w.MaxBatch)
		cfg.Workers = append(cfg.Workers, w)
	}
	for i := 0; i < numGPU; i++ {
		w := like(device.KindGPU)
		gpu := device.NewV100(fmt.Sprintf("gpu%d", i))
		if tf, ok := w.Device.(*tfbaseline.Device); ok {
			w.Device = tfbaseline.NewDevice(gpu, tf.CPU)
		} else {
			w.Device = gpu
		}
		cfg.Workers = append(cfg.Workers, w)
		if cfg.EvalDevice == nil {
			cfg.EvalDevice = w.Device
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// GPUMemoryCheck verifies that a GPU worker's peak memory footprint — the
// model replica, its gradient, the batch, and the layer activations the
// worker keeps resident (§V: "the intermediate output of kernel invocations
// is kept in the GPU memory") — fits in the device's global memory, the
// constraint §VI-B says bounds the GPU batch size.
func GPUMemoryCheck(net *nn.Network, w WorkerConfig) error {
	if w.Device.Kind() != device.KindGPU {
		return nil
	}
	spec := w.Device.Spec()
	budget := int64(spec.MemoryGB) << 30
	if budget == 0 {
		return nil
	}
	model := int64(net.Arch.NumParameters()) * 8
	dims := net.Arch.LayerDims()
	var actCols int64
	for _, d := range dims {
		actCols += int64(d)
	}
	// Model + gradient + batch input + activations + deltas.
	need := 2*model + int64(w.MaxBatch)*8*(int64(net.Arch.InputDim)+2*actCols)
	if need > budget {
		return fmt.Errorf("core: GPU worker %s needs %.2f GiB at batch %d, device has %d GiB (reduce MaxBatch, §VI-B)",
			w.Device.Name(), float64(need)/float64(1<<30), w.MaxBatch, spec.MemoryGB)
	}
	return nil
}
