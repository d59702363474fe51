package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// sigmoidEdges are the inputs where the kernel and the scalar formula part
// ways if either is wrong: signed zeros, non-finite values, subnormals, tiny
// normals, and −|x| on both sides of the kernel's −708 bound and of exp's
// subnormal (−708.4) and zero (−745.2) results.
var sigmoidEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e-300,
	-707.9, -708, -708.4, -709.8, -745.2, 707.9, 708, 708.4, 709.8, 745.2,
}

// refSigmoid is the scalar formula, element by element.
func refSigmoid(d []float64) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = Sigmoid(v)
	}
	return out
}

// TestSigmoidBitExact pins SigmoidSlice, on whichever path the platform
// picks, to Sigmoid bit for bit (any NaN matching any NaN): every length
// 0..67 at offsets 0..3 inside guarded slices, whose guards must stay put, on
// the edge values, N(0, σ) for σ ∈ {1, 30, 400} and random bit patterns; then
// a sweep of [−720, 720].
func TestSigmoidBitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 4))
	draw := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return sigmoidEdges[rng.IntN(len(sigmoidEdges))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * []float64{1, 30, 400}[rng.IntN(3)]
		}
	}
	const guard = 4
	for trial := 0; trial < 20; trial++ {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				backing := make([]float64, off+n+guard)
				for i := range backing {
					backing[i] = -1234.5 - float64(i)
				}
				d := backing[off : off+n]
				for i := range d {
					d[i] = draw()
				}
				before := append([]float64(nil), backing...)
				want := refSigmoid(d)
				SigmoidSlice(d)
				if !sameBits(d, want) {
					t.Fatalf("n=%d off=%d: kernel %v, scalar %v (inputs %v)", n, off, d, want, before[off:off+n])
				}
				if !sameBits(backing[:off], before[:off]) || !sameBits(backing[off+n:], before[off+n:]) {
					t.Fatalf("n=%d off=%d: wrote outside the slice", n, off)
				}
			}
		}
	}
	sweep := make([]float64, 1<<18)
	for i := range sweep {
		sweep[i] = -720 + 1440*float64(i)/float64(len(sweep)-1)
	}
	want := refSigmoid(sweep)
	SigmoidSlice(sweep)
	for i := range sweep {
		if math.Float64bits(sweep[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sweep point %d: kernel %v, scalar %v", i, sweep[i], want[i])
		}
	}
}

// FuzzSigmoid: the kernel and the scalar formula agree on arbitrary bits —
// raw holds little-endian float64s — at any start offset.
func FuzzSigmoid(f *testing.F) {
	var seed []byte
	for _, v := range sigmoidEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(0), seed)
	f.Add(uint8(3), seed[8:])
	f.Fuzz(func(t *testing.T, off uint8, raw []byte) {
		n := len(raw) / 8
		d := make([]float64, int(off%4)+n)[off%4:]
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		want := refSigmoid(d)
		SigmoidSlice(d)
		if !sameBits(d, want) {
			t.Fatalf("kernel %v, scalar %v", d, want)
		}
	})
}

// BenchmarkSigmoid times the hidden activation on 128 K N(0, 4) values: the
// scalar formula element by element, then SigmoidSlice (the AVX2 kernel where
// the platform has it). Both copy the inputs in first.
func BenchmarkSigmoid(b *testing.B) {
	rng := rand.New(rand.NewPCG(128, 4))
	src, buf := make([]float64, 128<<10), make([]float64, 128<<10)
	for i := range src {
		src[i] = 2 * rng.NormFloat64()
	}
	for _, kernel := range []bool{false, true} {
		b.Run(fmt.Sprintf("kernel=%v", kernel), func(b *testing.B) {
			for range b.N {
				copy(buf, src)
				if kernel {
					SigmoidSlice(buf)
					continue
				}
				for i, v := range buf {
					buf[i] = Sigmoid(v)
				}
			}
		})
	}
}
