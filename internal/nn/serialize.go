package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"heterosgd/internal/atomicio"
)

// Binary model format: magic, version, layer count, then per layer the
// weight shape and row-major float64 data followed by the bias data, then a
// CRC-32 (IEEE) of every preceding byte. Everything is little-endian.
// Version 1 files (no trailing checksum) are still readable; version 2 adds
// the checksum so a truncated or bit-flipped checkpoint is rejected with a
// descriptive error instead of silently loading corrupt weights.
//
// AppendParams and ReadParamsInto are the one codec: they work in place on a
// caller-owned byte slice and a caller-owned Params, so the cluster wire —
// which moves the whole model both ways on every dispatch — encodes and
// decodes without allocating. WriteParams and ReadParams wrap them for
// streams (checkpoints, model files).
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

// AppendParams appends p's serialization (format version 2, checksummed) to
// dst and returns the extended slice. With ParamsWireSize spare capacity in
// dst it does not allocate.
func AppendParams(dst []byte, p *Params) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = le.AppendUint32(dst, paramsMagic)
	dst = le.AppendUint32(dst, paramsVersion)
	dst = le.AppendUint32(dst, uint32(len(p.Weights)))
	for l, wm := range p.Weights {
		dst = le.AppendUint32(dst, uint32(wm.Rows))
		dst = le.AppendUint32(dst, uint32(wm.Cols))
		dst = appendFloats(dst, wm.Data)
		dst = appendFloats(dst, p.Biases[l].Data)
	}
	return le.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendFloats(dst []byte, data []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(data))[:off+8*len(data)]
	out := dst[off:]
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return dst
}

// ReadParamsInto decodes a blob written by AppendParams (or a version-1 blob
// without the checksum) into dst, whose shapes say what the blob must hold.
// Everything is verified before the first value is stored — magic, version,
// layer count, every layer's shape, the exact length and (version ≥ 2) the
// checksum — so on error dst is untouched, and corruption — truncation,
// flipped bytes, a model for a different network — returns a descriptive
// error rather than a silently wrong model. blob is only read; the call does
// not allocate on success.
func ReadParamsInto(dst *Params, blob []byte) error {
	le := binary.LittleEndian
	if len(blob) < paramsHeaderLen {
		return fmt.Errorf("nn: reading model header: %w", io.ErrUnexpectedEOF)
	}
	magic, version, layers := le.Uint32(blob), le.Uint32(blob[4:]), le.Uint32(blob[8:])
	if magic != paramsMagic {
		return fmt.Errorf("nn: bad model magic %#x", magic)
	}
	if version < 1 || version > paramsVersion {
		return fmt.Errorf("nn: unsupported model version %d", version)
	}
	if int(layers) != len(dst.Weights) {
		return fmt.Errorf("nn: model has %d layers, network needs %d", layers, len(dst.Weights))
	}
	off := paramsHeaderLen
	for l, wm := range dst.Weights {
		if len(blob)-off < paramsShapeLen {
			return fmt.Errorf("nn: reading layer %d shape: %w", l, io.ErrUnexpectedEOF)
		}
		rows, cols := le.Uint32(blob[off:]), le.Uint32(blob[off+4:])
		if int(rows) != wm.Rows || int(cols) != wm.Cols {
			return fmt.Errorf("nn: layer %d is %d×%d, network needs %d×%d", l, rows, cols, wm.Rows, wm.Cols)
		}
		off += paramsShapeLen
		n := 8 * (len(wm.Data) + len(dst.Biases[l].Data))
		if len(blob)-off < n {
			return fmt.Errorf("nn: reading layer %d values: %w", l, io.ErrUnexpectedEOF)
		}
		off += n
	}
	if version >= 2 {
		if len(blob)-off < paramsSumLen {
			return fmt.Errorf("nn: reading model checksum (truncated file?): %w", io.ErrUnexpectedEOF)
		}
		if got, want := le.Uint32(blob[off:]), crc32.ChecksumIEEE(blob[:off]); got != want {
			return fmt.Errorf("nn: model checksum mismatch (stored %#x, computed %#x): file is corrupt", got, want)
		}
		off += paramsSumLen
	}
	if off != len(blob) {
		return fmt.Errorf("nn: %d trailing bytes after the model", len(blob)-off)
	}
	off = paramsHeaderLen
	for l, wm := range dst.Weights {
		off = decodeFloats(wm.Data, blob, off+paramsShapeLen)
		off = decodeFloats(dst.Biases[l].Data, blob, off)
	}
	dst.ActiveCols = nil // Weights[0] is dense now
	return nil
}

// decodeFloats fills data from blob[off:] and returns the offset past it.
func decodeFloats(data []float64, blob []byte, off int) int {
	src := blob[off : off+8*len(data)]
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return off + len(src)
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
