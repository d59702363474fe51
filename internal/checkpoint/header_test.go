package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand/v2"
	"regexp"
	"testing"
	"time"

	"heterosgd/internal/core"
	"heterosgd/internal/data"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

// pinnedHeader and pinnedMembership are the two JSON sections the checkpoint
// writer produced for pinnedState when the header was a hand-kept copy of
// core.RunState's fields; pinnedHeaderCRC and pinnedMembershipCRC are their
// section checksums. Marshalling RunState as it is must write the same bytes.
const (
	pinnedHeader = `{"algorithm":3,"seed":7,"epoch":4,"cursor":96,"examples_done":4096,"total_updates":301,` +
		`"batch":[32,512],"updates":[180,121],"lr_mult":[1,0.75],"guard_lr_scale":0.5,"guard_retries":2,` +
		`"rng":"CQgHBgUEAwI=","interrupted":true,"at_ns":2250000000,"events":[` +
		`{"At":750000000,"Worker":"gpu0","Kind":"crash","Detail":"injected fault at iteration 3"},` +
		`{"At":750000000,"Worker":"cpu0","Kind":"redispatch","Detail":"batch of 512 from gpu0"}]}`
	pinnedHeaderCRC  = 0x781a33f4
	pinnedMembership = `{"states":[0,0],"clocks":[40,3],"seq_floor":44,"dispatches":43,"min":1,"max":2,"peak":2,` +
		`"partitions":0,"reconnects":0,"applied_examples":4000,` +
		`"flight":[{"seq":44,"worker":0,"lo":64,"hi":96,"epoch":4},{"seq":0,"worker":-1,"lo":0,"hi":64,"epoch":4}]}`
	pinnedMembershipCRC = 0x0306fde0
)

// pinnedState is a mid-run capture after a crash: one crash incident and
// its re-dispatch, a membership section with clocks, and one live and one
// queued flight entry.
func pinnedState(t *testing.T) *core.RunState {
	t.Helper()
	return &core.RunState{
		Algorithm:    core.AlgAdaptiveHogbatch,
		Seed:         7,
		Epoch:        4,
		Cursor:       96,
		ExamplesDone: 4096,
		TotalUpdates: 301,
		Batch:        []int{32, 512},
		Updates:      []int64{180, 121},
		LRMult:       []float64{1, 0.75},
		GuardLRScale: 0.5,
		GuardRetries: 2,
		RNG:          []byte{9, 8, 7, 6, 5, 4, 3, 2},
		Interrupted:  true,
		At:           2250 * time.Millisecond,
		Events: []metrics.Event{
			{At: 750 * time.Millisecond, Worker: "gpu0", Kind: "crash", Detail: "injected fault at iteration 3"},
			{At: 750 * time.Millisecond, Worker: "cpu0", Kind: "redispatch", Detail: "batch of 512 from gpu0"},
		},
		Membership: &core.MembershipState{
			States:          []int{0, 0},
			Clocks:          []int64{40, 3},
			SeqFloor:        44,
			Dispatches:      43,
			Min:             1,
			Max:             2,
			Peak:            2,
			AppliedExamples: 4000,
			Flight: []core.FlightEntry{
				{Seq: 44, Worker: 0, Lo: 64, Hi: 96, Epoch: 4},
				{Worker: -1, Lo: 0, Hi: 64, Epoch: 4},
			},
		},
		Params: testNet(t).NewParams(nn.InitXavier, rand.New(rand.NewPCG(1, 2))),
	}
}

// TestHeaderBytesPinned: every byte before the model section — magic,
// version, both JSON sections, their lengths and checksums — is what the
// hand-kept header struct wrote, so files written before and after load
// alike.
func TestHeaderBytesPinned(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, pinnedState(t)); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	want := le.AppendUint32(nil, 0x48474331)
	want = le.AppendUint32(want, 2)
	want = le.AppendUint32(want, uint32(len(pinnedHeader)))
	want = append(want, pinnedHeader...)
	want = le.AppendUint32(want, pinnedHeaderCRC)
	want = le.AppendUint32(want, uint32(len(pinnedMembership)))
	want = append(want, pinnedMembership...)
	want = le.AppendUint32(want, pinnedMembershipCRC)
	if got := buf.Bytes(); !bytes.HasPrefix(got, want) {
		t.Fatalf("header bytes changed:\n got %q\nwant %q", got[:min(len(got), len(want))], want)
	}
}

// guardedConfig is a tiny Adaptive Hogbatch run with the divergence guard
// on: a 10-feature, 512-example problem that runs an epoch about every
// 0.12 ms of virtual time.
func guardedConfig(t *testing.T) core.Config {
	t.Helper()
	spec := data.SynthSpec{
		Name: "tiny", N: 512, Dim: 10, Classes: 2,
		Density: 1.0, Separation: 2.5, Noise: 0.5,
		HiddenLayers: 2, HiddenUnits: 16,
	}
	cfg := core.NewConfig(core.AlgAdaptiveHogbatch, nn.MustNetwork(spec.Arch()), data.Generate(spec, 42),
		core.Preset{CPUThreads: 4, CPUMinPerThread: 1, CPUMaxPerThread: 8, GPUMin: 32, GPUMax: 128})
	cfg.BaseLR, cfg.RefBatch, cfg.EvalSubset, cfg.Guards = 0.1, 4, 256, true
	return cfg
}

// lastHeader is a CheckpointSink that keeps the JSON header of the newest
// checkpoint it was handed.
type lastHeader struct{ hdr []byte }

func (s *lastHeader) WriteState(st *core.RunState) error {
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		return err
	}
	raw := buf.Bytes()
	s.hdr = raw[12 : 12+binary.LittleEndian.Uint32(raw[8:12])]
	return nil
}

// TestGuardedHeaderKeepsItsShape: a fault-free guarded run's last header
// does not grow with the run. Tripling the horizon may change numbers and
// the shuffle stream's state, and nothing else: the guard's per-epoch
// snapshot is not an incident, so no event accumulates.
func TestGuardedHeaderKeepsItsShape(t *testing.T) {
	number := regexp.MustCompile(`-?[0-9][0-9.eE+-]*`)
	shape := func(horizon time.Duration) (string, int) {
		cfg := guardedConfig(t)
		sink := &lastHeader{}
		cfg.CheckpointSink = sink
		if _, err := core.RunSim(context.Background(), cfg, horizon); err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(sink.hdr, &fields); err != nil {
			t.Fatal(err)
		}
		fields["rng"] = nil // the marshaled PCG state: base64, a new value every epoch
		norm, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		return number.ReplaceAllString(string(norm), "0"), len(sink.hdr)
	}
	short, shortLen := shape(2 * time.Millisecond)
	long, longLen := shape(6 * time.Millisecond)
	if long != short {
		t.Fatalf("tripling the horizon changed the header beyond its numbers (%d B → %d B):\n%s\n%s", shortLen, longLen, short, long)
	}
}

// TestGuardedSnapshotIncidentsFileResumes: testdata/guarded-snapshot-incidents.ckpt
// was written by guardedConfig's run over a 2 ms horizon when the guard
// still logged one "checkpoint" incident per epoch barrier (16 of them). It
// loads and resumes; the old incidents ride along as history, read as no
// fault, and no new ones join them.
func TestGuardedSnapshotIncidentsFileResumes(t *testing.T) {
	cfg := guardedConfig(t)
	st, err := Load("testdata/guarded-snapshot-incidents.ckpt", cfg.Net)
	if err != nil {
		t.Fatal(err)
	}
	old := metrics.Events(st.Events).Count("checkpoint")
	if old == 0 {
		t.Fatal("the fixture holds no checkpoint incidents")
	}
	cfg.Resume = st
	res, err := core.RunSim(context.Background(), cfg, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted || res.Epochs <= float64(st.Epoch) || res.TotalUpdates() == 0 {
		t.Fatalf("the resumed run did not train on: %.2f epochs from %d, %d updates", res.Epochs, st.Epoch, res.TotalUpdates())
	}
	if got := res.Events.Count("checkpoint"); got != old {
		t.Fatalf("resumed history holds %d checkpoint incidents, the file %d", got, old)
	}
	if res.Health.Faulty() {
		t.Fatalf("old checkpoint incidents read as faults: %s", res.Health)
	}
}
