package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"testing"
)

// leFloats is the blob's float encoding written out longhand: the reference
// the codec's views and loops are held to.
func leFloats(data []float64) []byte {
	out := make([]byte, 0, 8*len(data))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// wireCase is one random network with two models on it, the second a few
// steps away from the first, holding the values that test a wire codec's
// arithmetic: signed zeros, subnormals, infinities and a NaN.
func wireCase(seed uint64) (*Params, *Params) {
	rng := rand.New(rand.NewPCG(seed, 3))
	arch := Arch{InputDim: 1 + rng.IntN(9), OutputDim: 1 + rng.IntN(5), Activation: ActSigmoid}
	for range rng.IntN(7) {
		arch.Hidden = append(arch.Hidden, 1+rng.IntN(11))
	}
	net := MustNetwork(arch)
	p := net.NewParams(InitXavier, rng)
	q := p.Clone()
	for i := range q.Data {
		q.Data[i] += 0.01 * rng.NormFloat64()
	}
	special := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, math.Inf(1), math.NaN()}
	for i, v := range special {
		p.Data[(7*i)%len(p.Data)] = v
		q.Data[(11*i+3)%len(q.Data)] = -v
	}
	return p, q
}

// placed returns a copy of blob whose first byte sits shift bytes past an
// 8-aligned address.
func placed(blob []byte, shift int) []byte {
	buf := make([]byte, len(blob)+8)
	return append(buf[shift:shift], blob...)
}

// TestCRCResidue pins the property the wire's frame checks fold through: the
// CRC-32 of any bytes followed by their own CRC-32, little-endian, is one
// constant.
func TestCRCResidue(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for n := range 64 {
		x := make([]byte, n*37)
		for i := range x {
			x[i] = byte(rng.Uint32())
		}
		x = binary.LittleEndian.AppendUint32(x, crc32.ChecksumIEEE(x))
		if got := crc32.ChecksumIEEE(x); got != crcResidue {
			t.Fatalf("%d bytes: residue %#x, want %#x", len(x), got, crcResidue)
		}
	}
}

// TestWireViewsMatchPortableLoops runs every wire operation on the views and
// again on the portable loops the big-endian hosts take, over random
// architectures, aligned and misaligned blobs: the bytes and the bits must
// agree with each other and with the reference: AppendParams, and
// AddScaled's arithmetic (any NaN matching any NaN).
func TestWireViewsMatchPortableLoops(t *testing.T) {
	if !viewFloats {
		t.Skip("big-endian host: only the portable loops exist")
	}
	defer func() { viewFloats = true }()
	for seed := range uint64(40) {
		p, q := wireCase(seed)
		diff := p.Clone() // the delta of a replica p trained from q
		diff.AddScaled(-1, q)
		sum := p.Clone() // q applied to p
		sum.AddScaled(1, q)
		type outcome struct {
			blob, gathered, delta []byte
			blobSum, gatherSum    uint32
			copied, added         *Params
			finite                bool
		}
		var runs [2]outcome
		for k, views := range []bool{true, false} {
			viewFloats = views
			o := &runs[k]
			o.blob = AppendParams(nil, q)
			var g Gather
			o.gatherSum = g.Of(q)
			o.gathered = bytes.Join(g.Parts, nil)
			b, err := ViewParams(p, placed(o.blob, int(seed%8)), crc32.ChecksumIEEE(o.blob))
			if err != nil {
				t.Fatalf("seed %d views %v: %v", seed, views, err)
			}
			o.copied = p.Clone()
			b.CopyTo(o.copied)
			o.added = p.Clone()
			b.AddTo(o.added)
			o.finite = b.AllFinite()
			out := placed(make([]byte, len(o.blob)), int(seed%8))[:0]
			o.delta, o.blobSum = b.AppendDiff(out, p)
			if &o.delta[0] != &out[:1][0] {
				t.Fatalf("seed %d views %v: AppendDiff reallocated a sized buffer", seed, views)
			}
		}
		for k, o := range runs {
			if !bytes.Equal(o.blob, AppendParams(nil, q)) || !bytes.Equal(o.gathered, o.blob) {
				t.Fatalf("seed %d run %d: encoded blobs differ", seed, k)
			}
			if o.gatherSum != crc32.ChecksumIEEE(o.blob) || o.blobSum != crc32.ChecksumIEEE(o.delta) {
				t.Fatalf("seed %d run %d: returned CRCs are not the blobs'", seed, k)
			}
			got := p.Clone()
			if err := ReadParamsInto(got, o.delta); err != nil || !sameBits(got.Data, diff.Data) {
				t.Fatalf("seed %d run %d: AppendDiff is not p − q (%v)", seed, k, err)
			}
			if !bytes.Equal(o.delta, runs[0].delta) {
				t.Fatalf("seed %d: the views' and the loops' deltas differ", seed)
			}
			if !sameBits(o.copied.Data, q.Data) || !sameBits(o.added.Data, sum.Data) {
				t.Fatalf("seed %d run %d: CopyTo or AddTo moved a bit", seed, k)
			}
			if o.finite != q.AllFinite() {
				t.Fatalf("seed %d run %d: AllFinite %v, Params say %v", seed, k, o.finite, q.AllFinite())
			}
		}
	}
}
