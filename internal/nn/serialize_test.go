package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParamsRoundTrip(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	rng := rand.New(rand.NewPCG(61, 1))
	p := net.NewParams(InitXavier, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadParams(&buf, net)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxAbsDiff(back) != 0 {
		t.Fatal("round trip changed parameters")
	}
}

func TestReadParamsRejectsGarbage(t *testing.T) {
	net := MustNetwork(testArch(false, ActSigmoid))
	if _, err := ReadParams(bytes.NewReader([]byte("not a model")), net); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := ReadParams(bytes.NewReader(nil), net); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// paramsReaders are the two entry points of the one codec: the stream wrapper
// checkpoints use and the in-place decoder the cluster wire uses. Every
// rejection and compatibility test below runs against both.
var paramsReaders = []struct {
	name string
	read func(raw []byte, net *Network) (*Params, error)
}{
	{"ReadParams", func(raw []byte, net *Network) (*Params, error) {
		return ReadParams(bytes.NewReader(raw), net)
	}},
	{"ReadParamsInto", func(raw []byte, net *Network) (*Params, error) {
		p := net.NewParams(InitXavier, rand.New(rand.NewPCG(60, 1)))
		before := p.Clone()
		err := ReadParamsInto(p, raw)
		if err != nil && p.MaxAbsDiff(before) != 0 {
			return nil, fmt.Errorf("rejected blob modified dst (%w)", err)
		}
		return p, err
	}},
}

// encoded returns a seeded parameter set for the test architecture and its
// serialization.
func encoded(t *testing.T, seed uint64) (*Network, *Params, []byte) {
	t.Helper()
	net := MustNetwork(testArch(false, ActSigmoid))
	p := net.NewParams(InitXavier, rand.New(rand.NewPCG(seed, 1)))
	var buf bytes.Buffer
	if err := WriteParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	return net, p, buf.Bytes()
}

func TestReadParamsRejectsWrongArchitecture(t *testing.T) {
	_, _, raw := encoded(t, 62)
	shallow := MustNetwork(Arch{InputDim: 5, OutputDim: 4, Activation: ActSigmoid})
	other := MustNetwork(Arch{InputDim: 5, Hidden: []int{9, 6}, OutputDim: 4, Activation: ActSigmoid})
	for _, r := range paramsReaders {
		t.Run(r.name, func(t *testing.T) {
			if _, err := r.read(raw, shallow); err == nil || !strings.Contains(err.Error(), "layers") {
				t.Fatalf("different layer count: want a layer-count error, got: %v", err)
			}
			if _, err := r.read(raw, other); err == nil || !strings.Contains(err.Error(), "network needs") {
				t.Fatalf("same depth, different widths: want a shape error, got: %v", err)
			}
		})
	}
}

func TestReadParamsRejectsTruncation(t *testing.T) {
	net, _, raw := encoded(t, 63)
	for _, r := range paramsReaders {
		t.Run(r.name, func(t *testing.T) {
			// Every cut: inside the header, a shape, the values, the checksum.
			for cut := 0; cut < len(raw); cut++ {
				if _, err := r.read(raw[:cut], net); err == nil || !strings.Contains(err.Error(), "nn:") {
					t.Fatalf("cut at %d of %d: want a descriptive nn error, got: %v", cut, len(raw), err)
				}
			}
		})
	}
	// A blob is the model exactly: the in-place decoder has no stream to
	// leave a surplus byte in.
	if err := ReadParamsInto(net.NewParams(InitZero, nil), append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("a blob with a trailing byte was accepted")
	}
}

func TestReadParamsRejectsFlippedByte(t *testing.T) {
	net, _, raw := encoded(t, 65)
	// Flip one bit deep inside the float payload: the shapes still parse,
	// only the checksum can catch it.
	raw[len(raw)/2] ^= 0x40
	for _, r := range paramsReaders {
		t.Run(r.name, func(t *testing.T) {
			_, err := r.read(raw, net)
			if err == nil {
				t.Fatal("expected checksum error for flipped byte")
			}
			if !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("want a checksum-mismatch error, got: %v", err)
			}
		})
	}
}

func TestReadParamsV1BackCompat(t *testing.T) {
	// A version-1 file (no trailing checksum) must still load.
	net, p, raw := encoded(t, 66)
	raw = raw[:len(raw)-4] // strip the CRC...
	binary.LittleEndian.PutUint32(raw[4:], 1)
	for _, r := range paramsReaders {
		t.Run(r.name, func(t *testing.T) {
			back, err := r.read(raw, net)
			if err != nil {
				t.Fatalf("version-1 file should load: %v", err)
			}
			if p.MaxAbsDiff(back) != 0 {
				t.Fatal("version-1 round trip changed parameters")
			}
		})
	}
}

// TestReadParamsStopsAtModelEnd: the stream wrapper consumes the model's
// bytes and nothing after them, whichever version the header declares.
func TestReadParamsStopsAtModelEnd(t *testing.T) {
	net, _, raw := encoded(t, 68)
	v1 := append([]byte(nil), raw[:len(raw)-4]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	for _, blob := range [][]byte{raw, v1} {
		r := bytes.NewReader(append(append([]byte(nil), blob...), "tail"...))
		if _, err := ReadParams(r, net); err != nil {
			t.Fatal(err)
		}
		if rest, _ := io.ReadAll(r); string(rest) != "tail" {
			t.Fatalf("ReadParams left %q unread, want %q", rest, "tail")
		}
	}
}

// TestAppendParamsGolden pins the model bytes every checkpoint and every
// cluster frame carries: the sha256 was taken from WriteParams as it stood
// before AppendParams existed, for this seed-fixed 54-16-7 network.
func TestAppendParamsGolden(t *testing.T) {
	const golden = "8c351f21a2bbd946f42cda3731f89edccea68362a438566d690a3377959017ba"
	net := MustNetwork(Arch{InputDim: 54, Hidden: []int{16}, OutputDim: 7, Activation: ActSigmoid})
	p := net.NewParams(InitXavier, rand.New(rand.NewPCG(18, 1)))
	blob := AppendParams([]byte("prefix"), p)[len("prefix"):]
	if len(blob) != ParamsWireSize(net) {
		t.Fatalf("AppendParams wrote %d bytes, ParamsWireSize says %d", len(blob), ParamsWireSize(net))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != golden {
		t.Fatalf("serialized model bytes changed: sha256 %s, want %s", got, golden)
	}
	var buf bytes.Buffer
	if err := WriteParams(&buf, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatal("WriteParams and AppendParams disagree")
	}
}

// TestParamsCodecDoesNotAllocate guards the cluster wire's per-dispatch cost:
// encoding into a sized buffer and decoding into an existing Params are both
// allocation-free.
func TestParamsCodecDoesNotAllocate(t *testing.T) {
	net, p, _ := encoded(t, 69)
	buf := make([]byte, 0, ParamsWireSize(net))
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendParams(buf[:0], p) }); allocs != 0 {
		t.Errorf("AppendParams into a sized buffer allocates %v times per call", allocs)
	}
	dst := net.NewParams(InitZero, nil)
	var err error
	if allocs := testing.AllocsPerRun(100, func() { err = ReadParamsInto(dst, buf) }); allocs != 0 || err != nil {
		t.Errorf("ReadParamsInto allocates %v times per call (err %v)", allocs, err)
	}
	if p.MaxAbsDiff(dst) != 0 {
		t.Fatal("in-place round trip changed parameters")
	}
}

// FuzzReadParamsInto asserts the in-place decoder's safety contract on
// arbitrary bytes: it never panics, never accepts a blob whose checksum does
// not match, and never changes dst's shapes — nor, when it rejects, dst's
// values.
func FuzzReadParamsInto(f *testing.F) {
	net := MustNetwork(testArch(false, ActSigmoid))
	good := AppendParams(nil, net.NewParams(InitXavier, rand.New(rand.NewPCG(70, 1))))
	v1 := append([]byte(nil), good[:len(good)-4]...)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	f.Add(good)
	f.Add(v1)
	f.Add(good[:len(good)/2])
	f.Add([]byte("not a model"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		dst := net.NewParams(InitXavier, rand.New(rand.NewPCG(71, 1)))
		before := dst.Clone()
		err := ReadParamsInto(dst, blob)
		for l, wm := range dst.Weights {
			bw := before.Weights[l]
			if wm.Rows != bw.Rows || wm.Cols != bw.Cols || len(wm.Data) != len(bw.Data) || len(dst.Biases[l].Data) != len(before.Biases[l].Data) {
				t.Fatalf("layer %d changed shape", l)
			}
		}
		if err != nil {
			if dst.MaxAbsDiff(before) != 0 {
				t.Fatalf("rejected blob modified dst: %v", err)
			}
			return
		}
		if binary.LittleEndian.Uint32(blob[4:]) >= 2 {
			n := len(blob) - 4
			if crc32.ChecksumIEEE(blob[:n]) != binary.LittleEndian.Uint32(blob[n:]) {
				t.Fatal("accepted a blob whose checksum does not match")
			}
		}
	})
}

// TestLoadParamsFileCorruption covers the on-disk failure modes a resumed run
// can hit: truncation (partial write), a flipped byte (bit rot), and a
// checkpoint for a different architecture. Each must produce a descriptive
// error, never a silently wrong model.
func TestLoadParamsFileCorruption(t *testing.T) {
	net := MustNetwork(testArch(true, ActTanh))
	rng := rand.New(rand.NewPCG(67, 1))
	p := net.NewParams(InitXavier, rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.hgm")
	if err := SaveParamsFile(path, p); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		cut := filepath.Join(dir, "truncated.hgm")
		if err := os.WriteFile(cut, raw[:len(raw)-9], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadParamsFile(cut, net)
		if err == nil {
			t.Fatal("expected error for truncated file")
		}
		if !strings.Contains(err.Error(), "nn:") {
			t.Fatalf("want a descriptive nn error, got: %v", err)
		}
	})

	t.Run("flipped byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[3*len(bad)/4] ^= 0x01
		flipped := filepath.Join(dir, "flipped.hgm")
		if err := os.WriteFile(flipped, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadParamsFile(flipped, net)
		if err == nil {
			t.Fatal("expected error for flipped byte")
		}
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("want a checksum-mismatch error, got: %v", err)
		}
	})

	t.Run("wrong architecture", func(t *testing.T) {
		other := MustNetwork(Arch{InputDim: 5, Hidden: []int{3}, OutputDim: 4, Activation: ActSigmoid})
		_, err := LoadParamsFile(path, other)
		if err == nil {
			t.Fatal("expected error for wrong architecture")
		}
		if !strings.Contains(err.Error(), "layers") {
			t.Fatalf("want a layer-mismatch error, got: %v", err)
		}
	})
}

func TestParamsFileRoundTrip(t *testing.T) {
	net := MustNetwork(testArch(true, ActTanh))
	rng := rand.New(rand.NewPCG(64, 1))
	p := net.NewParams(InitXavier, rng)
	path := filepath.Join(t.TempDir(), "model.hgm")
	if err := SaveParamsFile(path, p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadParamsFile(path, net)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxAbsDiff(back) != 0 {
		t.Fatal("file round trip changed parameters")
	}
	if _, err := LoadParamsFile(filepath.Join(t.TempDir(), "missing"), net); err == nil {
		t.Fatal("expected error for missing file")
	}
}
