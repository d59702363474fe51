// Package transport abstracts the coordinator↔worker channel of the
// paper's star topology (§VII-A) behind a Transport interface, so the same
// coordinator loop drives in-process Hogwild workers (LocalTransport, a thin
// adapter over internal/msgq) and separate worker processes on a network
// (TCPTransport, a length-prefixed binary-framed protocol with heartbeats,
// reconnect backoff, and idempotent re-dispatch keyed by a monotonic
// dispatch ID).
//
// The wire format follows internal/checkpoint's codec conventions: a magic
// number, an explicit version byte, and a CRC-32 (IEEE) trailer over every
// frame, so a torn or corrupted stream is detected rather than decoded.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"unsafe"
)

// Kind tags a frame's payload type.
type Kind uint8

const (
	// KindHello is the worker's handshake: its ID, sent on every (re)connect.
	KindHello Kind = iota + 1
	// KindWelcome is the coordinator's handshake reply carrying run config.
	KindWelcome
	// KindWork is a dispatched batch (coordinator → worker).
	KindWork
	// KindDone is a completed dispatch (worker → coordinator).
	KindDone
	// KindAck acknowledges a Done, letting the worker drop its retransmit
	// copy (coordinator → worker).
	KindAck
	// KindHeartbeat is a liveness probe; each side echoes the other's.
	KindHeartbeat
	// KindGoodbye is an orderly shutdown notice (coordinator → worker).
	KindGoodbye
	// KindJoin is an elastic worker's handshake: instead of claiming a
	// pre-assigned ID with Hello, the worker asks the coordinator to admit
	// it mid-run; the Welcome reply carries the assigned ID.
	KindJoin
	// KindLeave announces a graceful departure (worker → coordinator): the
	// worker receives no new work, its in-flight completions drain
	// normally, and the coordinator answers with Goodbye once settled.
	KindLeave
)

var kindNames = [...]string{
	KindHello: "hello", KindWelcome: "welcome", KindWork: "work", KindDone: "done", KindAck: "ack",
	KindHeartbeat: "heartbeat", KindGoodbye: "goodbye", KindJoin: "join", KindLeave: "leave",
}

// String returns the frame-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

const (
	// frameMagic opens every frame ("HGF1", mirroring checkpoint's "HGC1").
	frameMagic = 0x48474631
	// frameVersion is the protocol version; a peer speaking another version
	// is rejected at the first frame. Version 2 added Work.Lanes and made
	// Welcome's lane field the largest per-lane sub-batch; version 3 added
	// Welcome.WeightDecay and Welcome.Guards.
	frameVersion = 3
	// headerLen is magic(4) + version(1) + kind(1) + flags(2) + length(4).
	headerLen = 12
	// MaxPayload bounds a frame's payload. Decoders reject larger lengths
	// before allocating, so a corrupt or hostile length field cannot drive
	// an over-allocation. Work frames carry serialized model parameters;
	// the cap matches checkpoint's 64 MiB header bound.
	MaxPayload = 64 << 20
	// MaxBlob is the largest Work.Params or Done.Delta a frame can carry:
	// MaxPayload less the fixed message fields that precede the blob.
	MaxBlob = MaxPayload - workHeadLen
)

// Frame-decode errors. ReadFrame never panics: every malformed input maps
// to one of these (or an underlying I/O error).
var (
	ErrBadMagic   = errors.New("transport: bad frame magic")
	ErrBadVersion = errors.New("transport: unsupported frame version")
	ErrBadKind    = errors.New("transport: unknown frame kind")
	ErrTooLarge   = errors.New("transport: frame payload exceeds limit")
	ErrBadCRC     = errors.New("transport: frame CRC mismatch")
	// ErrShortPayload reports a payload too small for its declared message.
	ErrShortPayload = errors.New("transport: payload truncated")
)

// appendHeader appends the frame header for a payload of n bytes.
func appendHeader(b []byte, kind Kind, n int) []byte {
	b = appendU32(b, frameMagic)
	b = append(b, frameVersion, uint8(kind), 0, 0) // flags, reserved
	return appendU32(b, uint32(n))
}

func checkPayloadLen(n int) error {
	if n > MaxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, n, MaxPayload)
	}
	return nil
}

// WriteFrame encodes one frame to w: header, payload, CRC-32 (IEEE) over
// header+payload. It performs a single Write so a frame is either fully
// buffered to the connection or not sent at all.
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	if err := checkPayloadLen(len(payload)); err != nil {
		return err
	}
	buf := make([]byte, 0, headerLen+len(payload)+4)
	buf = append(appendHeader(buf, kind, len(payload)), payload...)
	_, err := w.Write(appendU32(buf, crc32.ChecksumIEEE(buf)))
	return err
}

// writeWork writes w's Work frame — the bytes of WriteFrame(EncodeWork(w)) —
// without copying the params, on scratch of its own.
func writeWork(conn io.Writer, w Work) error { return new(workWriter).write(conn, w) }

// workWriter writes Work frames: header and fixed fields, the params (or
// their Parts) and the CRC leave as one vectored write. On a TCP connection
// that is a single writev under the connection's write lock, so the frame
// cannot interleave with the acks and heartbeats its read loop writes. The
// CRC is folded from the params' own (ParamsCRC), so with it known the
// params are not read here at all. Its scratch — the frame's head and the
// vector of parts — is reused from one write to the next.
type workWriter struct {
	head [headerLen + workHeadLen + 4]byte
	bufs net.Buffers
}

func (ww *workWriter) write(conn io.Writer, w Work) error {
	parts, n, sum := w.Parts, workHeadLen, w.ParamsCRC
	if parts == nil {
		parts = [][]byte{w.Params}
	}
	for _, p := range parts {
		n += len(p)
		if w.ParamsCRC == 0 {
			sum = crc32.Update(sum, crc32.IEEETable, p)
		}
	}
	if err := checkPayloadLen(n); err != nil {
		return err
	}
	head := appendWorkHead(appendHeader(ww.head[:0], KindWork, n), w, n-workHeadLen)
	bufs := append(append(ww.bufs[:0], head), parts...)
	bufs = append(bufs, appendU32(head[len(head):], crc32Combine(crc32.ChecksumIEEE(head), sum, n-workHeadLen)))
	ww.bufs = bufs
	_, err := ww.bufs.WriteTo(conn) // consumes ww.bufs, not bufs
	clear(bufs)
	ww.bufs = bufs[:0]
	return err
}

// appendDoneFrame appends d's complete Done frame — the bytes of
// WriteFrame(EncodeDone(d)) — to b, copying d.Delta into it.
func appendDoneFrame(b []byte, d Done) ([]byte, error) {
	n := doneHeadLen(d) + len(d.Delta)
	if err := checkPayloadLen(n); err != nil {
		return b, err
	}
	start := len(b)
	b = slices.Grow(b, headerLen+n+4)[:start+headerLen+n+4]
	copy(b[start+headerLen+doneHeadLen(d):], d.Delta)
	sealDone(b[start:], d)
	return b, nil
}

// sealDone completes the Done frame for d around its Delta, which already
// lies in place in frame: header and message head in front, the CRC — folded
// from the Delta's own (DeltaCRC) when known — behind.
func sealDone(frame []byte, d Done) {
	head := appendDoneHead(appendHeader(frame[:0], KindDone, len(frame)-headerLen-4), d)
	sum := d.DeltaCRC
	if sum == 0 {
		sum = crc32.ChecksumIEEE(d.Delta)
	}
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32Combine(crc32.ChecksumIEEE(head), sum, len(d.Delta)))
}

// modelFloatsAt is where a model blob's first float value lies: behind its
// 12-byte header and its first layer's 8-byte shape (nn's format). Every
// later section keeps that offset's alignment, so a receive buffer that puts
// it on an 8-byte boundary lets the model be read in place.
const modelFloatsAt = 20

// alignedAt returns the k in [0, 8) for which &b[k+off] is 8-aligned.
func alignedAt(b []byte, off int) int {
	return int(-(uintptr(unsafe.Pointer(unsafe.SliceData(b))) + uintptr(off)) & 7)
}

// multmodp returns a·b modulo the CRC-32 (IEEE) polynomial, bit-reflected.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}

// crc32Combine returns the CRC-32 (IEEE) of a‖b from crcA = crc(a), crcB =
// crc(b) and len(b) — zlib's crc32_combine: crcA times x^(8·len(b)), by
// square and multiply, plus crcB — so a frame's CRC is folded from its
// blob's without reading the blob again.
func crc32Combine(crcA, crcB uint32, lenB int) uint32 {
	p, sq := uint32(1)<<31, uint32(1)<<23 // x^0, and x^8: one byte's shift
	for ; lenB > 0; lenB >>= 1 {
		if lenB&1 != 0 {
			p = multmodp(sq, p)
		}
		sq = multmodp(sq, sq)
	}
	return multmodp(p, crcA) ^ crcB
}

// ReadFrame decodes one frame from r. Truncated, corrupt, or oversized
// input returns an error — never a panic, and never an allocation beyond
// the declared (bounds-checked) payload length. io.EOF is returned only
// for a clean EOF before the first header byte; a frame cut short mid-way
// surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Kind, []byte, error) {
	hdr := make([]byte, headerLen)
	kind, n, err := readHeader(r, hdr)
	if err != nil {
		return 0, nil, err
	}
	payload, _, err := readBody(r, hdr, make([]byte, n+4))
	return kind, payload, err
}

// readHeader reads one frame header into hdr (headerLen bytes), validates
// it and returns the frame's kind and its bounds-checked payload length.
// ReadFrame is readHeader then readBody; the link read loops call the two
// themselves so the body lands in a buffer they reuse.
func readHeader(r io.Reader, hdr []byte) (Kind, int, error) {
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, 0, err // clean EOF between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != frameMagic {
		return 0, 0, ErrBadMagic
	}
	if hdr[4] != frameVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	kind := Kind(hdr[5])
	if kind < KindHello || kind > KindLeave {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadKind, hdr[5])
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, MaxPayload)
	}
	return kind, int(n), nil
}

// readBody reads the payload and CRC that follow hdr into buf — exactly
// payload length + 4 bytes — and returns the verified payload, which aliases
// buf, with the CRC-32 of the blob that ends a Work or Done payload (0 when
// there is none). The frame's CRC is folded from the blob's, so one pass over
// the blob checks both.
func readBody(r io.Reader, hdr, buf []byte) ([]byte, uint32, error) {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := len(buf) - 4
	at := blobAt(Kind(hdr[5]), buf[:n])
	blob := crc32.ChecksumIEEE(buf[at:n])
	head := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, buf[:at])
	if crc32Combine(head, blob, n-at) != binary.LittleEndian.Uint32(buf[n:]) {
		return nil, 0, ErrBadCRC
	}
	return buf[:n:n], blob, nil
}

// blobAt returns where the blob that ends a Work or Done payload p begins —
// when the length word in front of it says it runs to p's end — and len(p)
// for any other payload.
func blobAt(kind Kind, p []byte) int {
	at := uint64(len(p))
	switch {
	case kind == KindWork && len(p) >= workHeadLen:
		at = workHeadLen
	case kind == KindDone && len(p) >= 32:
		at = 32 + uint64(binary.LittleEndian.Uint32(p[24:]))
	}
	if at >= uint64(len(p)) || uint64(binary.LittleEndian.Uint32(p[at-4:])) != uint64(len(p))-at {
		return len(p)
	}
	return int(at)
}

// sized returns buf resliced to n bytes, reallocating only when its capacity
// falls short. n comes from readHeader, so it is already bounded.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}
