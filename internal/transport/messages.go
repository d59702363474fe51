package transport

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Work is one dispatched batch. Seq is the coordinator's monotonic dispatch
// ID — the idempotency key: a worker that reconnects mid-batch retransmits
// its completion under the same Seq, and the coordinator applies each Seq at
// most once. The batch itself travels as an absolute example range [Lo, Hi)
// into the run's deterministically shuffled dataset (both processes build
// the identical dataset from the run seed and replay Epoch shuffles), so a
// dispatch frame stays small regardless of batch size. Params optionally
// carries the serialized global model for parameter-server training; it is
// empty for in-process transports, whose workers share the model in memory.
// Params is borrowed, never kept: the sender may overwrite it once Send
// returns, and on the worker it aliases the link's read buffer, valid only
// inside the handler call.
type Work struct {
	Seq   uint64
	Epoch uint32
	// ParamsCRC is the CRC-32 (IEEE) of the params' bytes, or 0 when not
	// known. A sender that knows it spares the link a pass over them, and on
	// receipt the link sets it from the pass it makes to check the frame.
	ParamsCRC uint32
	Lo, Hi    int
	LR        float64
	// SentNS is the coordinator's dispatch timestamp (engine clock,
	// nanoseconds) for queue-wait accounting.
	SentNS int64
	// Lanes is how many sub-batches the worker splits the batch into: a CPU
	// worker's Threads, 1 for any other device. The coordinator fills it for
	// worker processes, which have no device model of their own.
	Lanes  int
	Params []byte
	// Parts, when set, stand for Params in TCP.Send: the params' bytes in
	// pieces the link writes without joining them — a model's blob as views
	// of its own memory (nn.Gather). The frame is the same.
	Parts [][]byte
}

// Done is one completed dispatch. Delta carries the serialized parameter
// delta for parameter-server training (empty for in-process transports and
// failed work). A failed dispatch reports Failed with Err, and the
// coordinator re-dispatches the range elsewhere. Delta is borrowed like
// Work.Params: a handler may reuse its own bytes on its next call (the
// Client has copied them into the frame it keeps for retransmission) but
// never Client.DeltaBuf's, which are that frame; on the coordinator it
// aliases a receive buffer the engine may hand back with TCP.Recycle (see
// Msg) once it is through with the completion.
type Done struct {
	Worker  int
	Seq     uint64
	Updates int
	Dropped int
	Failed  bool
	// DeltaCRC is the CRC-32 (IEEE) of Delta, or 0 when not known: as
	// Work.ParamsCRC.
	DeltaCRC uint32
	Err      string
	Delta    []byte
}

// Hello is the worker's handshake, sent on every connect and reconnect.
type Hello struct {
	Worker int
}

// Welcome is the coordinator's handshake reply: the run parameters a worker
// process needs to mirror the coordinator's dataset and training behavior.
// Worker echoes the dialer's ID — or, for a Join handshake, carries the
// freshly assigned one — so an elastic joiner learns who it is, and
// inherits the run seed (and therefore the shuffle replay) like any other
// worker; the current model parameters ride its first Work dispatch.
// A RESUME welcome (Resume set) tells the worker this coordinator restarted
// from a checkpoint: ResumeEpoch is the shuffle count to fast-forward the
// worker's replay stream to, and SeqFloor is the dispatch-sequence
// high-water mark of the checkpoint — any completion the worker still
// buffers at or below it belongs to the previous incarnation and must be
// dropped, since those dispatches were either applied pre-crash or rebuilt
// into the resumed coordinator's flight map under fresh sequence numbers.
// WeightDecay and Guards are the coordinator's Config.WeightDecay and
// Config.Guards: the worker's gradient step applies the same L2 penalty and
// drops the same non-finite gradients without being told twice.
type Welcome struct {
	Seed        uint64
	HeartbeatNS int64
	Shuffle     bool
	// LaneRows is the largest sub-batch one lane takes under the lane
	// counts the coordinator puts on its dispatches; MaxBatch the largest
	// batch. A worker sizes its workspace from them before any dispatch.
	LaneRows    int
	MaxBatch    int
	Worker      int
	Resume      bool
	ResumeEpoch uint32
	SeqFloor    uint64
	WeightDecay float64
	Guards      bool
}

// Leave is a worker's graceful-departure announcement: stop dispatching to
// me, drain my in-flight completions, then say Goodbye.
type Leave struct {
	Worker int
}

// Ack acknowledges receipt of the Done for Seq, releasing the worker's
// retransmit copy.
type Ack struct {
	Seq uint64
}

// appendUvarint-free fixed-width encoding: every field is little-endian and
// fixed-size except the two variable-length tails (Err, Delta/Params),
// which are length-prefixed and bounds-checked on decode.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// cursor walks a payload with bounds checks; every take reports
// ErrShortPayload instead of slicing out of range.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = ErrShortPayload
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *cursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(c.b)) {
		c.err = ErrShortPayload
		return nil
	}
	return c.take(int(n))
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing payload bytes", len(c.b))
	}
	return nil
}

// workHeadLen is the Work payload up to and including the length prefix of
// Params — everything but the blob itself.
const workHeadLen = 52

// appendWorkHead appends w's payload short of its n params bytes.
func appendWorkHead(b []byte, w Work, n int) []byte {
	b = appendU64(b, w.Seq)
	b = appendU32(b, w.Epoch)
	b = appendU64(b, uint64(int64(w.Lo)))
	b = appendU64(b, uint64(int64(w.Hi)))
	b = appendU64(b, math.Float64bits(w.LR))
	b = appendU64(b, uint64(w.SentNS))
	b = appendU32(b, uint32(int32(w.Lanes)))
	return appendU32(b, uint32(n))
}

// EncodeWork serializes w for a Work frame.
func EncodeWork(w Work) []byte {
	b := make([]byte, 0, workHeadLen+len(w.Params))
	return append(appendWorkHead(b, w, len(w.Params)), w.Params...)
}

// DecodeWork parses a Work frame payload.
func DecodeWork(p []byte) (Work, error) {
	c := &cursor{b: p}
	w := Work{
		Seq:   c.u64(),
		Epoch: c.u32(),
		Lo:    int(int64(c.u64())),
		Hi:    int(int64(c.u64())),
	}
	w.LR = math.Float64frombits(c.u64())
	w.SentNS = int64(c.u64())
	w.Lanes = int(int32(c.u32()))
	w.Params = c.bytes()
	if err := c.done(); err != nil {
		return Work{}, fmt.Errorf("work: %w", err)
	}
	if w.Lo < 0 || w.Hi < w.Lo {
		return Work{}, fmt.Errorf("transport: work range [%d,%d) invalid", w.Lo, w.Hi)
	}
	return w, nil
}

// doneHeadLen is d's payload length short of the Delta bytes.
func doneHeadLen(d Done) int { return 32 + len(d.Err) }

// appendDoneHead appends d's payload up to and including the length prefix
// of Delta.
func appendDoneHead(b []byte, d Done) []byte {
	b = appendU32(b, uint32(int32(d.Worker)))
	b = appendU64(b, d.Seq)
	b = appendU32(b, uint32(int32(d.Updates)))
	b = appendU32(b, uint32(int32(d.Dropped)))
	b = appendU32(b, bit32(d.Failed))
	b = appendU32(b, uint32(len(d.Err)))
	b = append(b, d.Err...)
	return appendU32(b, uint32(len(d.Delta)))
}

// EncodeDone serializes d for a Done frame.
func EncodeDone(d Done) []byte {
	b := make([]byte, 0, doneHeadLen(d)+len(d.Delta))
	return append(appendDoneHead(b, d), d.Delta...)
}

// DecodeDone parses a Done frame payload.
func DecodeDone(p []byte) (Done, error) {
	c := &cursor{b: p}
	d := Done{
		Worker:  int(int32(c.u32())),
		Seq:     c.u64(),
		Updates: int(int32(c.u32())),
		Dropped: int(int32(c.u32())),
	}
	d.Failed = c.u32() != 0
	d.Err = string(c.bytes())
	d.Delta = c.bytes()
	if err := c.done(); err != nil {
		return Done{}, fmt.Errorf("done: %w", err)
	}
	if d.Worker < 0 {
		return Done{}, fmt.Errorf("transport: done from negative worker %d", d.Worker)
	}
	return d, nil
}

// EncodeHello serializes h for a Hello frame.
func EncodeHello(h Hello) []byte {
	return appendU32(nil, uint32(int32(h.Worker)))
}

// DecodeHello parses a Hello frame payload.
func DecodeHello(p []byte) (Hello, error) {
	c := &cursor{b: p}
	h := Hello{Worker: int(int32(c.u32()))}
	if err := c.done(); err != nil {
		return Hello{}, fmt.Errorf("hello: %w", err)
	}
	if h.Worker < 0 {
		return Hello{}, fmt.Errorf("transport: hello from negative worker %d", h.Worker)
	}
	return h, nil
}

// bit32 encodes a flag as a whole little-endian word.
func bit32(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// EncodeWelcome serializes w for a Welcome frame.
func EncodeWelcome(w Welcome) []byte {
	b := make([]byte, 0, 60)
	b = appendU64(b, w.Seed)
	b = appendU64(b, uint64(w.HeartbeatNS))
	b = appendU32(b, bit32(w.Shuffle))
	b = appendU32(b, uint32(int32(w.LaneRows)))
	b = appendU32(b, uint32(int32(w.MaxBatch)))
	b = appendU32(b, uint32(int32(w.Worker)))
	b = appendU32(b, bit32(w.Resume))
	b = appendU32(b, w.ResumeEpoch)
	b = appendU64(b, w.SeqFloor)
	b = appendU64(b, math.Float64bits(w.WeightDecay))
	return appendU32(b, bit32(w.Guards))
}

// DecodeWelcome parses a Welcome frame payload.
func DecodeWelcome(p []byte) (Welcome, error) {
	c := &cursor{b: p}
	w := Welcome{
		Seed:        c.u64(),
		HeartbeatNS: int64(c.u64()),
	}
	w.Shuffle = c.u32() != 0
	w.LaneRows = int(int32(c.u32()))
	w.MaxBatch = int(int32(c.u32()))
	w.Worker = int(int32(c.u32()))
	w.Resume = c.u32() != 0
	w.ResumeEpoch = c.u32()
	w.SeqFloor = c.u64()
	w.WeightDecay = math.Float64frombits(c.u64())
	w.Guards = c.u32() != 0
	if err := c.done(); err != nil {
		return Welcome{}, fmt.Errorf("welcome: %w", err)
	}
	return w, nil
}

// EncodeLeave serializes l for a Leave frame.
func EncodeLeave(l Leave) []byte {
	return appendU32(nil, uint32(int32(l.Worker)))
}

// DecodeLeave parses a Leave frame payload.
func DecodeLeave(p []byte) (Leave, error) {
	c := &cursor{b: p}
	l := Leave{Worker: int(int32(c.u32()))}
	if err := c.done(); err != nil {
		return Leave{}, fmt.Errorf("leave: %w", err)
	}
	if l.Worker < 0 {
		return Leave{}, fmt.Errorf("transport: leave from negative worker %d", l.Worker)
	}
	return l, nil
}

// EncodeAck serializes a for an Ack frame.
func EncodeAck(a Ack) []byte {
	return appendU64(nil, a.Seq)
}

// DecodeAck parses an Ack frame payload.
func DecodeAck(p []byte) (Ack, error) {
	c := &cursor{b: p}
	a := Ack{Seq: c.u64()}
	if err := c.done(); err != nil {
		return Ack{}, fmt.Errorf("ack: %w", err)
	}
	return a, nil
}
