package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"unsafe"

	"heterosgd/internal/atomicio"
)

// Binary model format: magic, version, layer count, then per layer the
// weight shape and row-major float64 data followed by the bias data, then a
// CRC-32 (IEEE) of every preceding byte. Everything is little-endian.
// Version 1 files (no trailing checksum) are still readable; version 2 adds
// the checksum so a truncated or bit-flipped checkpoint is rejected with a
// descriptive error instead of silently loading corrupt weights.
//
// AppendParams and ViewParams are the one codec: they work in place on a
// caller-owned byte slice and a caller-owned Params, so the cluster wire —
// which moves the whole model both ways on every dispatch — encodes and
// decodes without allocating. Gather is AppendParams' blob as views of the
// model for a vectored write, and a Blob is a checked blob read where it
// lies. ReadParamsInto, WriteParams and ReadParams wrap them (checkpoints,
// model files).
const (
	paramsMagic   = 0x48474D31 // "HGM1"
	paramsVersion = 2
	// paramsHeaderLen is magic + version + layer count; paramsShapeLen the
	// rows + cols that open every layer; paramsSumLen the trailing CRC.
	paramsHeaderLen = 12
	paramsShapeLen  = 8
	paramsSumLen    = 4
)

// ParamsWireSize returns the exact length of AppendParams' output for net's
// parameters, so callers can size an encode buffer once.
func ParamsWireSize(net *Network) int {
	return wireSize(net.Arch.NumLayers(), net.Arch.NumParameters())
}

func wireSize(layers, values int) int {
	return paramsHeaderLen + paramsShapeLen*layers + 8*values + paramsSumLen
}

// crcResidue is the CRC-32 (IEEE) of any X followed by le32(crc32(X)): a
// version-2 blob is intact exactly when the CRC of all its bytes is this.
const crcResidue = 0x2144df1c

// AppendParams appends p's serialization (format version 2, checksummed) to
// dst and returns the extended slice. With ParamsWireSize spare capacity in
// dst it does not allocate.
func AppendParams(dst []byte, p *Params) []byte {
	dst, _ = appendBlob(dst, p, func(sec []byte, data []float64, _ int) { copy(sec, bytesOf(data)) })
	return dst
}

// layout appends p's blob short of its checksum to w: the header, then per
// layer the shape words and what section appends for the layer's span of
// p.Data.
func layout(w []byte, p *Params, section func(w []byte, data []float64) []byte) []byte {
	le := binary.LittleEndian
	w = le.AppendUint32(le.AppendUint32(le.AppendUint32(w, paramsMagic), paramsVersion), uint32(len(p.Weights)))
	at := 0
	for l, wm := range p.Weights {
		w = le.AppendUint32(le.AppendUint32(w, uint32(wm.Rows)), uint32(wm.Cols))
		n := len(wm.Data) + len(p.Biases[l].Data)
		w, at = section(w, p.Data[at:at+n]), at+n
	}
	return w
}

// appendBlob appends a version-2 blob shaped like p whose float sections
// fill writes — given each layer's span of p.Data and the section's offset
// in the blob — and returns it with the CRC-32 of all its bytes.
func appendBlob(dst []byte, p *Params, fill func(sec []byte, data []float64, off int)) ([]byte, uint32) {
	start := len(dst)
	dst = layout(slices.Grow(dst, wireSize(len(p.Weights), len(p.Data))), p, func(w []byte, data []float64) []byte {
		off := len(w)
		w = w[:off+8*len(data)]
		fill(w[off:], data, off-start)
		return w
	})
	sum := crc32.ChecksumIEEE(dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return dst, crc32.Update(sum, crc32.IEEETable, dst[len(dst)-paramsSumLen:])
}

// Gather is a model's blob as a vectored write sends it: Parts, joined, are
// AppendParams' bytes — the header and shape words, which Gather owns,
// between views of the model's own memory (encoded copies of it where the
// host's byte order is not the blob's).
type Gather struct {
	Parts [][]byte
	words []byte
}

// Of points g.Parts at p's current values and returns the CRC-32 of the
// blob's bytes. The parts are valid until p is next written or Of is called
// again.
func (g *Gather) Of(p *Params) uint32 {
	g.Parts = g.Parts[:0]
	mark := 0
	w := layout(slices.Grow(g.words[:0], wireSize(len(p.Weights), 0)), p, func(w []byte, data []float64) []byte {
		g.Parts, mark = append(g.Parts, w[mark:], bytesOf(data)), len(w)
		return w
	})
	var sum uint32
	for _, part := range g.Parts {
		sum = crc32.Update(sum, crc32.IEEETable, part)
	}
	w = binary.LittleEndian.AppendUint32(w, sum)
	g.Parts, g.words = append(g.Parts, w[mark:]), w
	return crc32.Update(sum, crc32.IEEETable, w[mark:])
}

// ReadParamsInto decodes a blob written by AppendParams (or a version-1 blob
// without the checksum) into dst, whose shapes say what the blob must hold:
// ViewParams' checks, then Blob.CopyTo. On error dst is untouched; the call
// does not allocate on success.
func ReadParamsInto(dst *Params, blob []byte) error {
	b, err := ViewParams(dst, blob, 0)
	if err == nil {
		b.CopyTo(dst)
	}
	return err
}

// Blob is a checked serialized model read where it lies: its values are
// never decoded into a Params of their own. It aliases the bytes it was made
// from, and every Params its methods take has the shapes it was checked
// against.
type Blob struct {
	b     []byte
	shape *Params
}

// ViewParams checks blob against shape's layers — magic, version, layer
// count, every layer's shape, the exact length and (version ≥ 2) the
// checksum — so corruption — truncation, flipped bytes, a model for a
// different network — returns a descriptive error rather than a silently
// wrong model. sum is the CRC-32 of all of blob when the caller has already
// read it (a link computes it to check the frame), or 0, and then the blob
// is read here. It does not allocate on success.
func ViewParams(shape *Params, blob []byte, sum uint32) (Blob, error) {
	le := binary.LittleEndian
	if len(blob) < paramsHeaderLen {
		return Blob{}, fmt.Errorf("nn: reading model header: %w", io.ErrUnexpectedEOF)
	}
	magic, version, layers := le.Uint32(blob), le.Uint32(blob[4:]), le.Uint32(blob[8:])
	if magic != paramsMagic {
		return Blob{}, fmt.Errorf("nn: bad model magic %#x", magic)
	}
	if version < 1 || version > paramsVersion {
		return Blob{}, fmt.Errorf("nn: unsupported model version %d", version)
	}
	if int(layers) != len(shape.Weights) {
		return Blob{}, fmt.Errorf("nn: model has %d layers, network needs %d", layers, len(shape.Weights))
	}
	off := paramsHeaderLen
	for l, wm := range shape.Weights {
		if len(blob)-off < paramsShapeLen {
			return Blob{}, fmt.Errorf("nn: reading layer %d shape: %w", l, io.ErrUnexpectedEOF)
		}
		rows, cols := le.Uint32(blob[off:]), le.Uint32(blob[off+4:])
		if int(rows) != wm.Rows || int(cols) != wm.Cols {
			return Blob{}, fmt.Errorf("nn: layer %d is %d×%d, network needs %d×%d", l, rows, cols, wm.Rows, wm.Cols)
		}
		off += paramsShapeLen
		n := 8 * (len(wm.Data) + len(shape.Biases[l].Data))
		if len(blob)-off < n {
			return Blob{}, fmt.Errorf("nn: reading layer %d values: %w", l, io.ErrUnexpectedEOF)
		}
		off += n
	}
	if version >= 2 {
		if len(blob)-off < paramsSumLen {
			return Blob{}, fmt.Errorf("nn: reading model checksum (truncated file?): %w", io.ErrUnexpectedEOF)
		}
		// A known sum of exactly the checksummed bytes settles it unread.
		if sum != crcResidue || off+paramsSumLen != len(blob) {
			if got, want := le.Uint32(blob[off:]), crc32.ChecksumIEEE(blob[:off]); got != want {
				return Blob{}, fmt.Errorf("nn: model checksum mismatch (stored %#x, computed %#x): file is corrupt", got, want)
			}
		}
		off += paramsSumLen
	}
	if off != len(blob) {
		return Blob{}, fmt.Errorf("nn: %d trailing bytes after the model", len(blob)-off)
	}
	return Blob{blob, shape}, nil
}

// each calls fn with every layer's span of p.Data and the blob bytes that
// hold it.
func (b Blob) each(p *Params, fn func(data []float64, sec []byte)) {
	off, at := paramsHeaderLen, 0
	for l, wm := range p.Weights {
		n := len(wm.Data) + len(p.Biases[l].Data)
		fn(p.Data[at:at+n], b.b[off+paramsShapeLen:off+paramsShapeLen+8*n])
		off, at = off+paramsShapeLen+8*n, at+n
	}
}

// CopyTo stores the blob's values into dst.
func (b Blob) CopyTo(dst *Params) {
	b.each(dst, func(data []float64, sec []byte) {
		if viewFloats {
			copy(bytesOf(data), sec)
		} else {
			copy(data, floatsOf(sec))
		}
	})
	dst.ActiveCols = nil // Weights[0] is dense now
}

// AddTo performs dst += 1·blob with AddScaled's arithmetic.
func (b Blob) AddTo(dst *Params) {
	b.each(dst, func(data []float64, sec []byte) { addScaled(data, 1, floatsOf(sec)) })
	dst.ActiveCols = nil
}

// AllFinite reports whether every value in the blob is finite, as
// Params.AllFinite would after decoding it.
func (b Blob) AllFinite() bool {
	ok := true
	b.each(b.shape, func(_ []float64, sec []byte) { ok = ok && allFinite(floatsOf(sec)) })
	return ok
}

// AppendDiff appends the serialization of p − blob — the delta a replica
// trained from the blob's values has made — to dst and returns it with the
// CRC-32 of its bytes. x − v is x + (−1)·v bit for bit, AddScaled(-1, ·)'s
// arithmetic. With ParamsWireSize spare capacity in dst it does not
// allocate; into a buffer placed like the blob's it reads and writes the
// values in place.
func (b Blob) AppendDiff(dst []byte, p *Params) ([]byte, uint32) {
	return appendBlob(dst, p, func(sec []byte, data []float64, off int) {
		v, out := floatsOf(b.b[off:off+len(sec)]), floatsOf(sec)
		for i, x := range data {
			out[i] = x - v[i]
		}
		copy(sec, bytesOf(out)) // no copy where out views sec
	})
}

// viewFloats says float64 memory is already in the blob's byte order — true
// on little-endian hosts — so a blob's float sections can be plain views of
// a model's memory. Elsewhere bytesOf and floatsOf convert.
var viewFloats = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf returns data in the blob's byte order: a view of its memory where
// viewFloats, an encoded copy elsewhere.
func bytesOf(data []float64) []byte {
	if viewFloats {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
	}
	out := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// floatsOf returns a blob section's values: a view of sec where viewFloats
// and sec is 8-aligned, a decoded copy elsewhere.
func floatsOf(sec []byte) []float64 {
	if p := unsafe.SliceData(sec); viewFloats && uintptr(unsafe.Pointer(p))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(p)), len(sec)/8)
	}
	out := make([]float64, len(sec)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(sec[8*i:]))
	}
	return out
}

// WriteParams serializes p to w (format version 2, checksummed).
func WriteParams(w io.Writer, p *Params) error {
	buf := make([]byte, 0, wireSize(len(p.Weights), p.NumParameters()))
	if _, err := w.Write(AppendParams(buf, p)); err != nil {
		return fmt.Errorf("nn: writing model: %w", err)
	}
	return nil
}

// ReadParams deserializes parameters written by WriteParams into a fresh
// Params for net, under ReadParamsInto's checks. It reads exactly the model's
// bytes from r — the length net's architecture and the stored version imply —
// and nothing past them.
func ReadParams(r io.Reader, net *Network) (*Params, error) {
	blob := make([]byte, ParamsWireSize(net))
	n, err := io.ReadFull(r, blob[:paramsHeaderLen])
	if err == nil {
		if binary.LittleEndian.Uint32(blob[4:]) == 1 {
			blob = blob[:len(blob)-paramsSumLen] // version 1 carries no checksum
		}
		n, err = io.ReadFull(r, blob[paramsHeaderLen:])
		n += paramsHeaderLen
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("nn: reading model: %w", err)
	}
	// A short read is handed on as it is: ReadParamsInto names what is wrong
	// with the part that did arrive (a foreign architecture, say) or where
	// the truncation falls.
	p := net.NewParams(InitZero, nil)
	if err := ReadParamsInto(p, blob[:n]); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveParamsFile writes the model to path atomically (temp file + rename),
// so a kill mid-save never leaves a torn checkpoint.
func SaveParamsFile(path string, p *Params) error {
	return atomicio.Write(path, 0o644, func(w io.Writer) error {
		return WriteParams(w, p)
	})
}

// LoadParamsFile reads a model checkpoint for the network.
func LoadParamsFile(path string, net *Network) (*Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadParams(f, net)
}
