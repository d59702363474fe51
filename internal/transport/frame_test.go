package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"
)

func mustFrame(t *testing.T, kind Kind, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, kind, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 1<<16)}
	for _, p := range payloads {
		raw := mustFrame(t, KindWork, p)
		kind, got, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", len(p), err)
		}
		if kind != KindWork || !bytes.Equal(got, p) {
			t.Fatalf("round trip of %d bytes: kind %v, %d bytes back", len(p), kind, len(got))
		}
	}
}

// TestFrameGoldenBytes pins the wire format: any change to the header
// layout, endianness, or CRC breaks cross-version interop and must show up
// here, not in a live cluster.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		pay  []byte
		hex  string
	}{
		{
			"work", KindWork,
			EncodeWork(Work{Seq: 42, Epoch: 3, Lo: 128, Hi: 192, LR: 0.0625, SentNS: 1_500_000_000, Lanes: 4, Params: []byte{0xde, 0xad, 0xbe, 0xef}}),
			"3146474803030000380000002a00000000000000030000008000000000000000c000000000000000000000000000b03f002f6859000000000400000004000000deadbeeff53feb10",
		},
		{
			"done", KindDone,
			EncodeDone(Done{Worker: 1, Seq: 42, Updates: 4, Dropped: 1, Failed: true, Err: "boom", Delta: []byte{1, 2}}),
			"314647480304000026000000010000002a0000000000000004000000010000000100000004000000626f6f6d020000000102b94f4257",
		},
		{
			"welcome", KindWelcome,
			EncodeWelcome(Welcome{Seed: 9, HeartbeatNS: 250_000_000, Shuffle: true, LaneRows: 64, MaxBatch: 512, Worker: 2, Resume: true, ResumeEpoch: 4, SeqFloor: 77, WeightDecay: 0.0001, Guards: true}),
			"31464748030200003c000000090000000000000080b2e60e000000000100000040000000000200000200000001000000040000004d000000000000002d431cebe2361a3f01000000acd63d07",
		},
		{"heartbeat", KindHeartbeat, nil, "314647480306000000000000b7e0d73e"},
	}
	for _, c := range cases {
		got := hex.EncodeToString(mustFrame(t, c.kind, c.pay))
		if got != c.hex {
			t.Errorf("%s frame bytes changed:\n got %s\nwant %s", c.name, got, c.hex)
		}
	}
}

// TestLinkWritersGoldenBytes pins the two senders that bypass WriteFrame to
// spare a copy of the model — TCP.Send's vectored Work frame and the Client's
// kept Done frame — to the bytes WriteFrame(Encode…) puts on the wire: the
// goldens above for the small messages, and a multi-KB blob against the
// reference encoder.
func TestLinkWritersGoldenBytes(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5a, 0xc3, 0x00, 0xff}, 3<<10)
	works := []struct {
		w   Work
		hex string
	}{
		{Work{Seq: 42, Epoch: 3, Lo: 128, Hi: 192, LR: 0.0625, SentNS: 1_500_000_000, Lanes: 4, Params: []byte{0xde, 0xad, 0xbe, 0xef}},
			"3146474803030000380000002a00000000000000030000008000000000000000c000000000000000000000000000b03f002f6859000000000400000004000000deadbeeff53feb10"},
		{Work{Seq: 7, Lo: 0, Hi: 64, LR: 0.01, Params: blob}, ""},
		{Work{Seq: 8}, ""},
	}
	for _, c := range works {
		var got bytes.Buffer
		if err := writeWork(&got, c.w); err != nil {
			t.Fatal(err)
		}
		if want := mustFrame(t, KindWork, EncodeWork(c.w)); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("work seq %d: vectored frame differs from WriteFrame(EncodeWork)", c.w.Seq)
		}
		if c.hex != "" && hex.EncodeToString(got.Bytes()) != c.hex {
			t.Errorf("work seq %d frame bytes changed:\n got %x\nwant %s", c.w.Seq, got.Bytes(), c.hex)
		}
	}
	dones := []struct {
		d   Done
		hex string
	}{
		{Done{Worker: 1, Seq: 42, Updates: 4, Dropped: 1, Failed: true, Err: "boom", Delta: []byte{1, 2}},
			"314647480304000026000000010000002a0000000000000004000000010000000100000004000000626f6f6d020000000102b94f4257"},
		{Done{Worker: 1, Seq: 7, Updates: 1, Delta: blob}, ""},
		{Done{Seq: 8}, ""},
	}
	kept := []byte("kept prefix") // appendDoneFrame appends; the CRC covers the frame only
	for _, c := range dones {
		out, err := appendDoneFrame(kept, c.d)
		if err != nil {
			t.Fatal(err)
		}
		got := out[len(kept):]
		if want := mustFrame(t, KindDone, EncodeDone(c.d)); !bytes.Equal(got, want) {
			t.Errorf("done seq %d: kept frame differs from WriteFrame(EncodeDone)", c.d.Seq)
		}
		if c.hex != "" && hex.EncodeToString(got) != c.hex {
			t.Errorf("done seq %d frame bytes changed:\n got %x\nwant %s", c.d.Seq, got, c.hex)
		}
	}
	big := make([]byte, MaxPayload) // fits a frame alone, not behind a message head
	if err := writeWork(io.Discard, Work{Params: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized work: err %v, want ErrTooLarge", err)
	}
	if _, err := appendDoneFrame(nil, Done{Delta: big}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized done: err %v, want ErrTooLarge", err)
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	good := mustFrame(t, KindDone, EncodeDone(Done{Worker: 0, Seq: 1}))

	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xff }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) { b[4] = 9 }), ErrBadVersion},
		{"bad kind", corrupt(func(b []byte) { b[5] = 200 }), ErrBadKind},
		{"flipped payload bit", corrupt(func(b []byte) { b[14] ^= 1 }), ErrBadCRC},
		{"flipped crc bit", corrupt(func(b []byte) { b[len(b)-1] ^= 1 }), ErrBadCRC},
		{"oversized length", corrupt(func(b []byte) { b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff }), ErrTooLarge},
		{"truncated header", good[:6], io.ErrUnexpectedEOF},
		{"truncated payload", good[:len(good)-6], io.ErrUnexpectedEOF},
		{"truncated crc", good[:len(good)-2], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		_, _, err := ReadFrame(bytes.NewReader(c.raw))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
	}
	if _, _, err := ReadFrame(strings.NewReader("")); err != io.EOF {
		t.Errorf("empty stream: err %v, want io.EOF", err)
	}
	if err := WriteFrame(io.Discard, KindWork, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized WriteFrame: err %v, want ErrTooLarge", err)
	}
}

func TestReadFrameStreamsBackToBack(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&buf, KindAck, EncodeAck(Ack{Seq: uint64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i := 0; i < 3; i++ {
		kind, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		a, err := DecodeAck(payload)
		if err != nil || kind != KindAck || a.Seq != uint64(i) {
			t.Fatalf("frame %d: kind %v seq %d err %v", i, kind, a.Seq, err)
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// FuzzReadFrame asserts the decoder's safety contract: arbitrary input may
// only yield a valid frame or an error — never a panic — and decoding a
// frame then re-encoding it must reproduce the input prefix (no silent
// payload mangling). Allocation is bounded by the checked length field.
func FuzzReadFrame(f *testing.F) {
	f.Add(mustFrameBytes(KindWork, EncodeWork(Work{Seq: 7, Lo: 0, Hi: 8, LR: 0.5})))
	f.Add(mustFrameBytes(KindDone, EncodeDone(Done{Worker: 2, Seq: 9, Err: "x"})))
	f.Add(mustFrameBytes(KindWelcome, EncodeWelcome(Welcome{Seed: 4, LaneRows: 8, WeightDecay: 1e-4, Guards: true})))
	f.Add(mustFrameBytes(KindHeartbeat, nil))
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x46, 0x47, 0x48})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, payload, err := ReadFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, kind, payload); err != nil {
			t.Fatalf("re-encoding decoded frame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw[:buf.Len()]) {
			t.Fatalf("re-encoded frame differs from input prefix")
		}
		// Message decoders must be equally panic-free on valid frames.
		switch kind {
		case KindWork:
			DecodeWork(payload)
		case KindDone:
			DecodeDone(payload)
		case KindHello:
			DecodeHello(payload)
		case KindWelcome:
			DecodeWelcome(payload)
		case KindAck:
			DecodeAck(payload)
		}
	})
}

func mustFrameBytes(kind Kind, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeMessages hits the payload decoders directly with raw bytes:
// truncated and hostile length prefixes must error, never slice out of
// bounds or over-allocate.
func FuzzDecodeMessages(f *testing.F) {
	f.Add(EncodeWork(Work{Seq: 1, Lo: 2, Hi: 3, Params: []byte{9}}))
	f.Add(EncodeDone(Done{Worker: 1, Seq: 2, Err: "e", Delta: []byte{1}}))
	f.Add(EncodeWelcome(Welcome{Seed: 3, LaneRows: 2}))
	f.Add(EncodeWelcome(Welcome{Seed: 3, LaneRows: 2, WeightDecay: 1e-4, Guards: true}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		DecodeWork(raw)
		DecodeDone(raw)
		DecodeHello(raw)
		DecodeWelcome(raw)
		DecodeAck(raw)
	})
}

func TestMessageRoundTrips(t *testing.T) {
	w := Work{Seq: 99, Epoch: 2, Lo: 10, Hi: 74, LR: 0.125, SentNS: 12345, Lanes: 56, Params: []byte{1, 2, 3}}
	gotW, err := DecodeWork(EncodeWork(w))
	if err != nil {
		t.Fatalf("work: %v", err)
	}
	if gotW.Seq != w.Seq || gotW.Epoch != w.Epoch || gotW.Lo != w.Lo || gotW.Hi != w.Hi ||
		gotW.LR != w.LR || gotW.SentNS != w.SentNS || gotW.Lanes != w.Lanes || !bytes.Equal(gotW.Params, w.Params) {
		t.Fatalf("work round trip: %+v != %+v", gotW, w)
	}
	d := Done{Worker: 3, Seq: 99, Updates: 7, Dropped: 2, Failed: true, Err: "kaput", Delta: []byte{4, 5}}
	gotD, err := DecodeDone(EncodeDone(d))
	if err != nil {
		t.Fatalf("done: %v", err)
	}
	if gotD.Worker != d.Worker || gotD.Seq != d.Seq || gotD.Updates != d.Updates ||
		gotD.Dropped != d.Dropped || gotD.Failed != d.Failed || gotD.Err != d.Err || !bytes.Equal(gotD.Delta, d.Delta) {
		t.Fatalf("done round trip: %+v != %+v", gotD, d)
	}
	wl := Welcome{Seed: 11, HeartbeatNS: 5e8, Shuffle: true, LaneRows: 4, MaxBatch: 256, Worker: 7,
		Resume: true, ResumeEpoch: 3, SeqFloor: 40, WeightDecay: 1e-3, Guards: true}
	gotWl, err := DecodeWelcome(EncodeWelcome(wl))
	if err != nil || gotWl != wl {
		t.Fatalf("welcome round trip: %+v != %+v (%v)", gotWl, wl, err)
	}
	h := Hello{Worker: 5}
	if gotH, err := DecodeHello(EncodeHello(h)); err != nil || gotH != h {
		t.Fatalf("hello round trip: %+v (%v)", gotH, err)
	}
	lv := Leave{Worker: 3}
	if gotL, err := DecodeLeave(EncodeLeave(lv)); err != nil || gotL != lv {
		t.Fatalf("leave round trip: %+v (%v)", gotL, err)
	}
	if _, err := DecodeLeave(EncodeLeave(Leave{Worker: -2})); err == nil {
		t.Fatal("negative leave worker accepted")
	}
	if _, err := DecodeWork(EncodeWork(w)[:10]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("truncated work payload: %v, want ErrShortPayload", err)
	}
	if _, err := DecodeWork(append(EncodeWork(w), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeWork(EncodeWork(Work{Lo: 5, Hi: 2})); err == nil {
		t.Fatal("inverted work range accepted")
	}
}
