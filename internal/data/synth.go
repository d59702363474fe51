package data

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"heterosgd/internal/nn"
	"heterosgd/internal/tensor"
)

// SynthSpec describes a synthetic dataset matched to the shape of one of the
// paper's real datasets (Table II): example count, dimensionality, class
// structure, feature density, and the MLP depth the paper pairs with it.
// The figures in the paper's evaluation depend on these shape parameters —
// dimensionality drives the Hogwild/mini-batch crossover, label count drives
// the TensorFlow delicious anomaly — so shape-matched synthetic data
// preserves the reported behaviours (DESIGN.md §2).
type SynthSpec struct {
	Name string
	// N is the number of examples; Dim the feature count.
	N, Dim int
	// Classes is the class count (or label count when MultiLabel).
	Classes int
	// MultiLabel generates label sets with AvgLabels mean cardinality.
	MultiLabel bool
	AvgLabels  float64
	// Density is the fraction of nonzero features per example.
	Density float64
	// Sparse marks datasets that should be materialized and trained in
	// CSR form (real-sim). Sparse specs keep their native dimensionality
	// when scaled — nnz, not Dim, is what costs memory and time.
	Sparse bool
	// Separation scales the class-center spread relative to noise.
	Separation float64
	// Noise is the per-feature Gaussian noise σ.
	Noise float64
	// HiddenLayers and HiddenUnits give the paper's MLP for this dataset.
	HiddenLayers, HiddenUnits int
}

// The paper's four datasets (Table II) with the hidden-layer depth §VII-A
// assigns to each (inversely proportional to dataset size: 4 for real-sim,
// 6 for covtype, 8 for w8a and delicious).
var (
	Covtype = SynthSpec{
		Name: "covtype", N: 581012, Dim: 54, Classes: 2,
		Density: 0.45, Separation: 1.2, Noise: 1.0,
		HiddenLayers: 6, HiddenUnits: 512,
	}
	W8a = SynthSpec{
		Name: "w8a", N: 49749, Dim: 300, Classes: 2,
		Density: 0.04, Separation: 1.5, Noise: 1.0,
		HiddenLayers: 8, HiddenUnits: 512,
	}
	Delicious = SynthSpec{
		Name: "delicious", N: 16105, Dim: 500, Classes: 983,
		MultiLabel: true, AvgLabels: 19,
		Density: 0.04, Separation: 1.8, Noise: 1.0,
		HiddenLayers: 8, HiddenUnits: 512,
	}
	RealSim = SynthSpec{
		Name: "real-sim", N: 72309, Dim: 20958, Classes: 2,
		Density: 0.0025, Sparse: true, Separation: 2.0, Noise: 1.0,
		HiddenLayers: 4, HiddenUnits: 512,
	}
)

// AllSpecs lists the four paper datasets in presentation order.
func AllSpecs() []SynthSpec { return []SynthSpec{Covtype, W8a, Delicious, RealSim} }

// SpecByName returns the spec with the given name.
func SpecByName(name string) (SynthSpec, error) {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return SynthSpec{}, fmt.Errorf("data: unknown dataset %q (have covtype, w8a, delicious, real-sim)", name)
}

// Scaled returns a copy with the example count (and, below 1/16 scale, the
// dimensionality of very wide datasets) reduced by factor f ∈ (0, 1]. Used
// to run the paper's experiments at laptop scale while keeping shape ratios.
func (s SynthSpec) Scaled(f float64) SynthSpec {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("data: scale factor %v outside (0,1]", f))
	}
	out := s
	out.N = max(64, int(float64(s.N)*f))
	if f < 1.0/16 && s.Dim > 4096 && !s.Sparse {
		out.Dim = max(512, int(float64(s.Dim)*math.Sqrt(f*16)))
	}
	if s.MultiLabel && f < 1.0/16 {
		out.Classes = max(32, int(float64(s.Classes)*math.Sqrt(f*16)))
		out.AvgLabels = math.Max(2, s.AvgLabels*math.Sqrt(f*16))
	}
	return out
}

// Arch returns the paper's MLP architecture for this dataset.
func (s SynthSpec) Arch() nn.Arch {
	hidden := make([]int, s.HiddenLayers)
	for i := range hidden {
		hidden[i] = s.HiddenUnits
	}
	arch := nn.Arch{
		InputDim:   s.Dim,
		Hidden:     hidden,
		OutputDim:  s.Classes,
		Activation: nn.ActSigmoid,
		MultiLabel: s.MultiLabel,
	}
	if s.Sparse {
		arch.InputDensity = s.Density
	}
	return arch
}

// Generate materializes the synthetic dataset densely. Multiclass data is a
// mixture of Gaussians: each class has a random center on the Separation-
// radius sphere restricted to a per-example sparse support. Multi-label
// data assigns each label a center and draws examples as normalized sums of
// their active labels' centers plus noise.
func Generate(s SynthSpec, seed uint64) *Dataset {
	d := generate(s, seed)
	d.X = d.XS.ToDense()
	d.XS = nil
	return d
}

// GenerateCSR materializes the synthetic dataset in CSR form. It consumes
// the RNG identically to Generate, so GenerateCSR(s, seed) is exactly
// ToDense-equal to Generate(s, seed) — the sparse path trains on the same
// examples the dense path would.
func GenerateCSR(s SynthSpec, seed uint64) *Dataset { return generate(s, seed) }

// generate is the shared core: it draws labels, supports, and values in a
// fixed RNG order and stores the rows in CSR form (per-row supports are
// sorted after all of the row's draws, which does not touch the RNG).
func generate(s SynthSpec, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	d := &Dataset{Name: s.Name, NumClasses: s.Classes, MultiLabel: s.MultiLabel}

	// Class/label centers. Kept dense but only sampled on each example's
	// sparse support, so wide datasets stay cheap to generate.
	centers := tensor.NewMatrix(s.Classes, s.Dim)
	centers.Randomize(rng, s.Separation)

	nnz := max(1, int(s.Density*float64(s.Dim)))
	support := make([]int, nnz)
	vals := make([]float64, nnz)
	order := make([]int, nnz)
	csr := &tensor.CSR{
		Rows: s.N, Cols: s.Dim,
		RowPtr: make([]int, s.N+1),
		ColIdx: make([]int, 0, s.N*nnz),
		Val:    make([]float64, 0, s.N*nnz),
	}
	appendRow := func(i int) {
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return support[order[a]] < support[order[b]] })
		for _, k := range order {
			csr.ColIdx = append(csr.ColIdx, support[k])
			csr.Val = append(csr.Val, vals[k])
		}
		csr.RowPtr[i+1] = len(csr.ColIdx)
	}

	if s.MultiLabel {
		d.Y = nn.Labels{Multi: make([][]int32, s.N)}
		for i := 0; i < s.N; i++ {
			k := 1 + poisson(rng, s.AvgLabels-1)
			if k > s.Classes {
				k = s.Classes
			}
			labels := sampleDistinct(rng, s.Classes, k)
			d.Y.Multi[i] = labels
			sampleSupport(rng, s.Dim, support)
			inv := 1 / math.Sqrt(float64(len(labels)))
			for t, j := range support {
				sum := 0.0
				for _, l := range labels {
					sum += centers.At(int(l), j)
				}
				vals[t] = float64(sum*inv) + float64(rng.NormFloat64()*s.Noise)
			}
			appendRow(i)
		}
		d.XS = csr
		return d
	}

	d.Y = nn.Labels{Class: make([]int, s.N)}
	for i := 0; i < s.N; i++ {
		c := rng.IntN(s.Classes)
		d.Y.Class[i] = c
		sampleSupport(rng, s.Dim, support)
		for t, j := range support {
			vals[t] = centers.At(c, j) + float64(rng.NormFloat64()*s.Noise)
		}
		appendRow(i)
	}
	d.XS = csr
	return d
}

// sampleSupport fills support with len(support) distinct feature indices.
func sampleSupport(rng *rand.Rand, dim int, support []int) {
	if len(support) >= dim {
		for i := range support {
			support[i] = i % dim
		}
		return
	}
	// Floyd's algorithm for a uniform distinct sample.
	seen := make(map[int]struct{}, len(support))
	k := 0
	for j := dim - len(support); j < dim; j++ {
		v := rng.IntN(j + 1)
		if _, dup := seen[v]; dup {
			v = j
		}
		seen[v] = struct{}{}
		support[k] = v
		k++
	}
}

// sampleDistinct returns k distinct labels from [0, n).
func sampleDistinct(rng *rand.Rand, n, k int) []int32 {
	out := make([]int32, 0, k)
	seen := make(map[int32]struct{}, k)
	for len(out) < k {
		l := int32(rng.IntN(n))
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	return out
}

// poisson draws from Poisson(λ) by Knuth's method (λ is small here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // safety for absurd λ
		}
	}
}
