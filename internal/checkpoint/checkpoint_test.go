package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

func testNet(t *testing.T) *nn.Network {
	t.Helper()
	return nn.MustNetwork(nn.Arch{
		InputDim: 6, Hidden: []int{5, 4}, OutputDim: 3, Activation: nn.ActSigmoid,
	})
}

func testState(t *testing.T, net *nn.Network) *core.RunState {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 7))
	return &core.RunState{
		Algorithm:    core.AlgAdaptiveHogbatch,
		Seed:         42,
		Epoch:        3,
		Cursor:       128,
		ExamplesDone: 9001,
		TotalUpdates: 512,
		Batch:        []int{16, 256},
		Updates:      []int64{300, 212},
		LRMult:       []float64{1, 1},
		GuardLRScale: 0.5,
		GuardRetries: 1,
		RNG:          []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		Interrupted:  true,
		At:           1500 * time.Millisecond,
		Events: []metrics.Event{
			{At: time.Second, Worker: "cpu", Kind: "interrupt", Detail: "test"},
		},
		Membership: &core.MembershipState{States: []int{0, 0}, Min: 1, Max: 2, Peak: 2},
		Params:     net.NewParams(nn.InitXavier, rng),
	}
}

func statesEqual(t *testing.T, want, got *core.RunState) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Seed != want.Seed ||
		got.Epoch != want.Epoch || got.Cursor != want.Cursor ||
		got.ExamplesDone != want.ExamplesDone || got.TotalUpdates != want.TotalUpdates ||
		got.GuardLRScale != want.GuardLRScale || got.GuardRetries != want.GuardRetries ||
		got.Interrupted != want.Interrupted || got.At != want.At {
		t.Fatalf("scalar fields changed: got %+v", got)
	}
	if len(got.Batch) != len(want.Batch) || got.Batch[0] != want.Batch[0] || got.Batch[1] != want.Batch[1] {
		t.Fatalf("batch changed: %v", got.Batch)
	}
	if !bytes.Equal(got.RNG, want.RNG) {
		t.Fatalf("rng state changed: %v", got.RNG)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != "interrupt" {
		t.Fatalf("events changed: %v", got.Events)
	}
	if want.Params.MaxAbsDiff(got.Params) != 0 {
		t.Fatal("model parameters changed")
	}
}

func TestRoundTrip(t *testing.T) {
	net := testNet(t)
	st := testState(t, net)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()), net)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, st, back)
}

func TestFileRoundTrip(t *testing.T) {
	net := testNet(t)
	st := testState(t, net)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, net)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, st, back)
}

func TestReadRejectsCorruption(t *testing.T) {
	net := testNet(t)
	st := testState(t, net)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		if _, err := Read(bytes.NewReader(bad), net); err == nil ||
			!strings.Contains(err.Error(), "magic") {
			t.Fatalf("want a bad-magic error, got %v", err)
		}
	})
	t.Run("flipped header byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[20] ^= 0x10 // inside the JSON header
		if _, err := Read(bytes.NewReader(bad), net); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("want a header-checksum error, got %v", err)
		}
	})
	t.Run("flipped model byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)-30] ^= 0x10 // inside the params floats
		if _, err := Read(bytes.NewReader(bad), net); err == nil ||
			!strings.Contains(err.Error(), "model section") {
			t.Fatalf("want a model-section error, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 3, 10, len(raw) / 2, len(raw) - 2} {
			if _, err := Read(bytes.NewReader(raw[:cut]), net); err == nil {
				t.Fatalf("truncation at %d must error", cut)
			}
		}
	})
	t.Run("wrong architecture", func(t *testing.T) {
		other := nn.MustNetwork(nn.Arch{InputDim: 6, Hidden: []int{2}, OutputDim: 3, Activation: nn.ActSigmoid})
		if _, err := Read(bytes.NewReader(raw), other); err == nil ||
			!strings.Contains(err.Error(), "model section") {
			t.Fatalf("want an architecture error from the model section, got %v", err)
		}
	})
}

func TestWriterRotationAndLoadLatest(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	w := &Writer{Path: path, Keep: 3}

	for epoch := 1; epoch <= 4; epoch++ {
		st := testState(t, net)
		st.Epoch = epoch
		if err := w.WriteState(st); err != nil {
			t.Fatal(err)
		}
	}

	// Newest generation wins.
	st, err := LoadLatest(path, 3, net)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 {
		t.Fatalf("latest epoch = %d, want 4", st.Epoch)
	}

	// Corrupt the head generation (as a kill mid-rotate or bit rot would):
	// LoadLatest falls back to the previous complete one.
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = LoadLatest(path, 3, net)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 {
		t.Fatalf("fallback epoch = %d, want 3", st.Epoch)
	}

	// Head missing entirely (kill between rotate and write).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	st, err = LoadLatest(path, 3, net)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 {
		t.Fatalf("missing-head fallback epoch = %d, want 3", st.Epoch)
	}
}

func TestLoadLatestErrors(t *testing.T) {
	net := testNet(t)
	dir := t.TempDir()

	// Nothing on disk: a clear not-found error.
	_, err := LoadLatest(filepath.Join(dir, "none.ckpt"), 3, net)
	if err == nil || !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("want a no-checkpoint error, got %v", err)
	}

	// All generations corrupt: the head generation's error surfaces.
	path := filepath.Join(dir, "bad.ckpt")
	os.WriteFile(path, []byte("garbage"), 0o644)
	os.WriteFile(path+".1", []byte("garbage"), 0o644)
	_, err = LoadLatest(path, 3, net)
	if err == nil || !strings.Contains(err.Error(), "checkpoint:") {
		t.Fatalf("want a descriptive error, got %v", err)
	}
}

func TestWriteRejectsMissingParams(t *testing.T) {
	st := testState(t, testNet(t))
	st.Params = nil
	if err := Write(&bytes.Buffer{}, st); err == nil {
		t.Fatal("expected error for missing params")
	}
	st = testState(t, testNet(t))
	st.Membership = nil
	if err := Write(&bytes.Buffer{}, st); err == nil || !strings.Contains(err.Error(), "membership") {
		t.Fatalf("state without membership: want a membership error, got %v", err)
	}
}

// memberState returns a run state carrying a mid-churn membership section:
// one departed slot, one draining, one active, plus in-flight work and
// transport counters — everything cluster resume must get back verbatim.
// (The churn, duplicate and abandoned counts are not among them: a resumed
// run folds them from the header's events.)
func memberState(t *testing.T, net *nn.Network) *core.RunState {
	t.Helper()
	st := testState(t, net)
	st.Batch = []int{16, 256, 16}
	st.Updates = []int64{300, 212, 44}
	st.LRMult = []float64{1, 1, 1}
	st.Membership = &core.MembershipState{
		States:          []int{0, 1, 2}, // active, draining, departed
		Clocks:          []int64{12, 9, 7},
		SeqFloor:        91,
		Dispatches:      88,
		Min:             1,
		Max:             4,
		Peak:            3,
		Partitions:      1,
		Reconnects:      1,
		AppliedExamples: 9001,
		Flight: []core.FlightEntry{
			{Seq: 90, Worker: 0, Lo: 64, Hi: 80, Epoch: 3},
			{Seq: 91, Worker: -1, Lo: 80, Hi: 96, Epoch: 3},
		},
	}
	return st
}

// TestMembershipRoundTrip: a state serializes as format version 2 and comes
// back field-for-field, membership included; a version-1 file — the
// pre-membership layout, which carries no worker set — is refused by name.
func TestMembershipRoundTrip(t *testing.T) {
	net := testNet(t)
	st := memberState(t, net)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != 2 {
		t.Fatalf("checkpoint has version %d, want 2", v)
	}
	back, err := Read(bytes.NewReader(raw), net)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, st, back)
	if back.Membership == nil {
		t.Fatal("membership section lost")
	}
	if !reflect.DeepEqual(back.Membership, st.Membership) {
		t.Fatalf("membership changed:\n got %+v\nwant %+v", back.Membership, st.Membership)
	}

	// The version-1 layout: the same header under version 1 with its own
	// checksum, no membership section, then the model.
	hdrLen := binary.LittleEndian.Uint32(raw[8:12])
	hdrEnd := 12 + int(hdrLen)
	memLen := binary.LittleEndian.Uint32(raw[hdrEnd+4:])
	v1 := binary.LittleEndian.AppendUint32(nil, 0x48474331)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = append(v1, raw[8:hdrEnd]...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	v1 = append(v1, raw[hdrEnd+4+4+int(memLen)+4:]...)
	if _, err := Read(bytes.NewReader(v1), net); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 read: want a refusal naming version 1, got %v", err)
	}
}

// TestMembershipParentFormatLoads: a membership section written before the
// churn, duplicate and abandoned counts became folds over the events still
// carries those six mirrors. It loads, the mirrors are ignored, and every
// field that remains comes back.
func TestMembershipParentFormatLoads(t *testing.T) {
	net := testNet(t)
	st := memberState(t, net)
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	memOff := 12 + int(binary.LittleEndian.Uint32(raw[8:12])) + 4 // after header JSON + header CRC
	memEnd := memOff + 4 + int(binary.LittleEndian.Uint32(raw[memOff:])) + 4

	old := []byte(`{"states":[0,1,2],"clocks":[12,9,7],"seq_floor":91,"dispatches":88,"min":1,"max":4,` +
		`"joins":1,"leaves":1,"evictions":1,"rebalances":3,"peak":3,"duplicates":2,"abandoned":1,` +
		`"partitions":1,"reconnects":1,"applied_examples":9001,` +
		`"flight":[{"seq":90,"worker":0,"lo":64,"hi":80,"epoch":3},{"seq":91,"worker":-1,"lo":80,"hi":96,"epoch":3}]}`)
	section := binary.LittleEndian.AppendUint32(nil, uint32(len(old)))
	section = append(section, old...)
	section = binary.LittleEndian.AppendUint32(section, crc32.ChecksumIEEE(section))
	file := append(append(append([]byte(nil), raw[:memOff]...), section...), raw[memEnd:]...)

	back, err := Read(bytes.NewReader(file), net)
	if err != nil {
		t.Fatalf("a parent-format membership section must load: %v", err)
	}
	statesEqual(t, st, back)
	if !reflect.DeepEqual(back.Membership, st.Membership) {
		t.Fatalf("membership changed:\n got %+v\nwant %+v", back.Membership, st.Membership)
	}
}

// TestMembershipCorruption: damage anywhere in the membership block must
// fail loudly — resuming with the wrong worker set would be silent data
// corruption at cluster scale.
func TestMembershipCorruption(t *testing.T) {
	net := testNet(t)
	var buf bytes.Buffer
	if err := Write(&buf, memberState(t, net)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	hdrLen := int(binary.LittleEndian.Uint32(raw[8:12]))
	memOff := 12 + hdrLen + 4 // after header JSON + header CRC

	t.Run("flipped membership byte", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[memOff+4+5] ^= 0x10 // inside the membership JSON
		if _, err := Read(bytes.NewReader(bad), net); err == nil ||
			!strings.Contains(err.Error(), "membership checksum mismatch") {
			t.Fatalf("want a membership-checksum error, got %v", err)
		}
	})
	t.Run("truncated inside membership", func(t *testing.T) {
		for _, cut := range []int{memOff, memOff + 2, memOff + 10} {
			if _, err := Read(bytes.NewReader(raw[:cut]), net); err == nil {
				t.Fatalf("truncation at %d must error", cut)
			}
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[4:8], 3)
		if _, err := Read(bytes.NewReader(bad), net); err == nil ||
			!strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("a version-3 file must be refused by this reader, got %v", err)
		}
	})
}

// TestLoadLatestReportFallback: when the newest generation's membership is
// corrupt, LoadLatest falls back to the previous good one and the report
// says so — as a Result-ready event, not just a return value.
func TestLoadLatestReportFallback(t *testing.T) {
	net := testNet(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	w := &Writer{Path: path, Keep: 3}
	for epoch := 3; epoch <= 4; epoch++ {
		st := memberState(t, net)
		st.Epoch = epoch
		if err := w.WriteState(st); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte inside the newest generation's membership JSON.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := int(binary.LittleEndian.Uint32(raw[8:12]))
	raw[12+hdrLen+4+4+5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, rep, err := LoadLatestReport(path, 3, net)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 {
		t.Fatalf("fallback epoch = %d, want 3", st.Epoch)
	}
	if !rep.FellBack() || rep.Path != path+".1" || len(rep.Rejected) != 1 {
		t.Fatalf("report = %+v, want fallback to %s.1", rep, path)
	}
	e, ok := rep.Event()
	if !ok || e.Kind != "ckpt-fallback" {
		t.Fatalf("event = (%+v, %v), want a ckpt-fallback event", e, ok)
	}
	if !strings.Contains(e.Detail, path+".1") || !strings.Contains(e.Detail, "membership checksum mismatch") {
		t.Fatalf("event detail %q should name the loaded generation and the rejection reason", e.Detail)
	}

	// A clean head produces no event.
	cleanRep := &LoadReport{Path: path}
	if _, ok := cleanRep.Event(); ok {
		t.Fatal("clean load produced a fallback event")
	}
}
