package transport

import (
	"bytes"
	"hash/crc32"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"

	"heterosgd/internal/nn"
)

// recConn is a connection that records what is written to it.
type recConn struct {
	net.Conn
	buf bytes.Buffer
}

func (r *recConn) Write(b []byte) (int, error)      { return r.buf.Write(b) }
func (r *recConn) SetWriteDeadline(time.Time) error { return nil }
func (r *recConn) Bytes() []byte                    { return r.buf.Bytes() }

// randomModels returns two models on a random network of 1 to 7 layers with
// odd widths: a dispatched one and the replica trained from it.
func randomModels(rng *rand.Rand) (base, trained *nn.Params) {
	arch := nn.Arch{InputDim: 1 + 2*rng.IntN(20), OutputDim: 1 + 2*rng.IntN(4), Activation: nn.ActSigmoid}
	for range rng.IntN(7) {
		arch.Hidden = append(arch.Hidden, 1+2*rng.IntN(30))
	}
	net := nn.MustNetwork(arch)
	base = net.NewParams(nn.InitXavier, rng)
	trained = base.Clone()
	for i := range trained.Data {
		trained.Data[i] += 0.01 * rng.NormFloat64()
	}
	return base, trained
}

// floatsAligned reports whether a model blob's first float value is on an
// 8-byte boundary.
func floatsAligned(blob []byte) bool {
	return uintptr(unsafe.Pointer(&blob[modelFloatsAt]))%8 == 0
}

// TestWireWritersMatchReferenceFrames holds the two model-carrying writers to
// the reference encoders, byte for byte, over random architectures: a Work
// sent from a model's own memory (nn.Gather, as the coordinator sends it) is
// WriteFrame(KindWork, EncodeWork(w)) with the blob from AppendParams, and a
// Done whose delta was built in the Client's frame (DeltaBuf, as the worker
// builds it) is WriteFrame(KindDone, EncodeDone(d)) — with no delta, and
// with Err strings of 0 to 9 bytes, which shift where the delta lies in the
// frame, so that only the empty one is framed in place. Each frame also
// reads back through the links' frame check with the blob's CRC.
func TestWireWritersMatchReferenceFrames(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	var ww workWriter
	c := newClient("", 3, ClientOptions{}, 0)
	seq := uint64(0)
	for trial := range 30 {
		base, trained := randomModels(rng)
		blob := nn.AppendParams(nil, base)

		var g nn.Gather
		w := Work{Seq: uint64(trial), Epoch: 2, Lo: 64, Hi: 128, LR: 0.01, SentNS: 99, Lanes: 3, ParamsCRC: g.Of(base), Parts: g.Parts}
		var got recConn
		if err := ww.write(&got, w); err != nil {
			t.Fatal(err)
		}
		ref := w
		ref.Parts, ref.ParamsCRC, ref.Params = nil, 0, blob
		if want := mustFrame(t, KindWork, EncodeWork(ref)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: gathered Work frame differs from WriteFrame(EncodeWork)", trial)
		}
		readBack(t, got.Bytes(), blob)

		view, err := nn.ViewParams(base, blob, 0)
		if err != nil {
			t.Fatal(err)
		}
		diff := trained.Clone()
		diff.AddScaled(-1, base)
		for errLen := range 10 {
			seq++
			d := Done{Worker: 3, Seq: seq, Updates: 2, Dropped: errLen % 2, Err: strings.Repeat("e", errLen)}
			buf := c.DeltaBuf(len(blob))
			d.Delta, d.DeltaCRC = view.AppendDiff(buf[:0], trained)
			if &d.Delta[0] != &buf[0] || !floatsAligned(d.Delta) {
				t.Fatalf("trial %d: the delta was not built in place at an aligned offset", trial)
			}
			var got recConn
			if err := c.sendDone(&got, d); err != nil {
				t.Fatal(err)
			}
			ref := d
			ref.DeltaCRC, ref.Delta = 0, nn.AppendParams(nil, diff)
			want := mustFrame(t, KindDone, EncodeDone(ref))
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("trial %d err %d: in-place Done frame differs from WriteFrame(EncodeDone)", trial, errLen)
			}
			kept := c.pending[seq].frame
			if inPlace := &kept[len(kept)-4-len(d.Delta)] == &d.Delta[0]; !bytes.Equal(kept, want) || inPlace != (errLen == 0) {
				t.Fatalf("trial %d err %d: kept frame in the delta's own buffer %v, want %v", trial, errLen, inPlace, errLen == 0)
			}
			readBack(t, want, ref.Delta)
		}
		seq++
		var empty recConn
		if err := c.sendDone(&empty, Done{Worker: 3, Seq: seq, Failed: true, Err: "no delta"}); err != nil {
			t.Fatal(err)
		}
		if want := mustFrame(t, KindDone, EncodeDone(Done{Worker: 3, Seq: seq, Failed: true, Err: "no delta"})); !bytes.Equal(empty.Bytes(), want) {
			t.Fatalf("trial %d: Done without a delta differs from WriteFrame(EncodeDone)", trial)
		}
		clear(c.pending) // as acks would
	}
}

// readBack reads frame back as the links do and checks the blob CRC the
// frame check hands on, and, for a Done, where the coordinator's receive
// buffer places the delta's floats.
func readBack(t *testing.T, frame, blob []byte) {
	t.Helper()
	hdr := make([]byte, headerLen)
	r := bytes.NewReader(frame)
	kind, n, err := readHeader(r, hdr)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, n+4)
	if kind == KindDone {
		_, body = new(TCP).takeBuf(n + 4)
	}
	payload, sum, err := readBody(r, hdr, body)
	if err != nil || sum != crc32.ChecksumIEEE(blob) {
		t.Fatalf("%v frame: err %v, blob CRC %#x, want %#x", kind, err, sum, crc32.ChecksumIEEE(blob))
	}
	if d, _ := DecodeDone(payload); kind == KindDone && d.Err == "" && len(d.Delta) > 0 && !floatsAligned(d.Delta) {
		t.Fatal("the coordinator's receive buffer misplaces the delta's floats")
	}
}

// FuzzCRC32Combine holds the frame checks' CRC fold to crc32.Update: for any
// bytes cut at any point, combining the two halves' CRCs is the CRC of the
// whole.
func FuzzCRC32Combine(f *testing.F) {
	f.Add([]byte("the frame's head and its blob"), uint32(12))
	f.Add([]byte{}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 4097), uint32(4096))
	f.Fuzz(func(t *testing.T, b []byte, cut uint32) {
		k := int(cut % uint32(len(b)+1))
		want := crc32.Update(crc32.ChecksumIEEE(b[:k]), crc32.IEEETable, b[k:])
		if got := crc32Combine(crc32.ChecksumIEEE(b[:k]), crc32.ChecksumIEEE(b[k:]), len(b)-k); got != want {
			t.Fatalf("cut %d of %d: combined %#x, want %#x", k, len(b), got, want)
		}
	})
}
