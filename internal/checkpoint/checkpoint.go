// Package checkpoint persists core.RunState — a training run's complete
// mutable state — as versioned, checksummed, atomically-replaced files, and
// restores it for core's Config.Resume.
//
// File layout (little-endian):
//
//	magic   uint32  "HGC1"
//	version uint32  2
//	hdrLen  uint32  length of the JSON header
//	header  []byte  JSON core.RunState (all but Membership and Params)
//	hdrCRC  uint32  CRC-32 (IEEE) of the four preceding fields
//	memLen  uint32  length of the membership JSON
//	member  []byte  JSON core.MembershipState
//	memCRC  uint32  CRC-32 (IEEE) of memLen + member
//	params  []byte  the model, in nn.WriteParams format (self-checksummed)
//
// The header is core.RunState marshalled as it is, so RunState's JSON tags
// are the header's schema; Membership and Params are tagged out of it and
// written as their own sections. The header, membership, and model sections
// carry independent checksums, so truncation or corruption anywhere in the
// file yields a descriptive error instead of a silently wrong resume — a
// flipped byte in the membership block must never resurrect the wrong worker
// set. Version 1, the pre-membership layout, is refused by name. Files are
// written via atomicio (temp file + rename), so a kill mid-write never leaves
// a torn checkpoint: readers see either the previous complete generation or
// the new one.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"heterosgd/internal/atomicio"
	"heterosgd/internal/core"
	"heterosgd/internal/metrics"
	"heterosgd/internal/nn"
)

const (
	fileMagic = 0x48474331 // "HGC1"
	// fileVersion 2 added the CRC-guarded membership section every state
	// carries; version 1 had none and is no longer read.
	fileVersion = 2
)

// Write serializes st to w: the header and membership sections in one
// write, then the model.
func Write(w io.Writer, st *core.RunState) error {
	if st.Params == nil {
		return fmt.Errorf("checkpoint: run state has no model parameters")
	}
	if st.Membership == nil {
		return fmt.Errorf("checkpoint: run state has no membership section")
	}
	hdr, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding header: %w", err)
	}
	mem, err := json.Marshal(st.Membership)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding membership: %w", err)
	}
	le := binary.LittleEndian
	b := append(le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, fileMagic), fileVersion), uint32(len(hdr))), hdr...)
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	m := len(b)
	b = append(le.AppendUint32(b, uint32(len(mem))), mem...)
	if _, err := w.Write(le.AppendUint32(b, crc32.ChecksumIEEE(b[m:]))); err != nil {
		return fmt.Errorf("checkpoint: writing header: %w", err)
	}
	return nn.WriteParams(w, st.Params)
}

// Read deserializes a checkpoint written by Write; the model section is
// validated against net's architecture.
func Read(r io.Reader, net *nn.Network) (*core.RunState, error) {
	crc := crc32.NewIEEE()
	var magic, version uint32
	for _, v := range []*uint32{&magic, &version} {
		if err := binary.Read(io.TeeReader(r, crc), binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("checkpoint: reading header: %w", err)
		}
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x (not a run-state checkpoint)", magic)
	}
	if version == 1 {
		return nil, fmt.Errorf("checkpoint: version 1 (pre-membership) checkpoints are no longer supported; it carries no worker set to resume")
	}
	if version != fileVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	hdr, err := section(r, crc, "header", "file is corrupt")
	if err != nil {
		return nil, err
	}
	st := &core.RunState{}
	if err := json.Unmarshal(hdr, st); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding header: %w", err)
	}
	mem, err := section(r, crc32.NewIEEE(), "membership", "refusing to resume an unverifiable worker set")
	if err != nil {
		return nil, err
	}
	st.Membership = &core.MembershipState{}
	if err := json.Unmarshal(mem, st.Membership); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding membership: %w", err)
	}
	if st.Params, err = nn.ReadParams(r, net); err != nil {
		return nil, fmt.Errorf("checkpoint: model section: %w", err)
	}
	return st, nil
}

// section reads one length-prefixed section and the CRC-32 that closes it,
// which covers what sum has already read, the length and the section.
func section(r io.Reader, sum hash.Hash32, what, corrupt string) ([]byte, error) {
	tr := io.TeeReader(r, sum)
	var n uint32
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s length (truncated file?): %w", what, err)
	}
	const maxSection = 64 << 20
	if n > maxSection {
		return nil, fmt.Errorf("checkpoint: implausible %s length %d (corrupt file?)", what, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(tr, b); err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s (truncated file?): %w", what, err)
	}
	want := sum.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s checksum (truncated file?): %w", what, err)
	}
	if got != want {
		return nil, fmt.Errorf("checkpoint: %s checksum mismatch (stored %#x, computed %#x): %s", what, got, want, corrupt)
	}
	return b, nil
}

// Save writes st to path atomically.
func Save(path string, st *core.RunState) error {
	return atomicio.Write(path, 0o644, func(w io.Writer) error {
		return Write(w, st)
	})
}

// Load reads the checkpoint at exactly path.
func Load(path string, net *nn.Network) (*core.RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, net)
}

// LoadReport is LoadLatest's audit trail: which generation was actually
// loaded and why every newer generation was rejected. Drills and CLIs turn
// it into a Result event so a fallback is visible in run output, not just
// on stderr.
type LoadReport struct {
	// Path is the generation that loaded successfully.
	Path string
	// Rejected lists newer generations skipped on the way, oldest-last.
	Rejected []Rejection
}

// Rejection records one generation LoadLatest could not use.
type Rejection struct {
	Path string
	Err  string
}

// FellBack reports whether anything newer than the loaded generation was
// rejected.
func (r *LoadReport) FellBack() bool { return r != nil && len(r.Rejected) > 0 }

// Event renders the fallback as a run-level event suitable for appending to
// the resumed RunState's event log; ok is false when no fallback happened.
func (r *LoadReport) Event() (metrics.Event, bool) {
	if !r.FellBack() {
		return metrics.Event{}, false
	}
	parts := make([]string, 0, len(r.Rejected))
	for _, rej := range r.Rejected {
		parts = append(parts, fmt.Sprintf("%s: %s", rej.Path, rej.Err))
	}
	return metrics.Event{
		Kind:   "ckpt-fallback",
		Detail: fmt.Sprintf("resumed from %s; rejected %s", r.Path, strings.Join(parts, "; ")),
	}, true
}

// LoadLatest reads path, falling back through its rotated generations
// (path.1, path.2, …, up to keep-1 backups) when path is missing or fails
// to validate — a kill between a Writer's rotate and write, or corruption
// of the newest generation, then resumes from the most recent good one.
func LoadLatest(path string, keep int, net *nn.Network) (*core.RunState, error) {
	st, _, err := LoadLatestReport(path, keep, net)
	return st, err
}

// LoadLatestReport is LoadLatest returning, additionally, the audit trail
// of which generation loaded and which newer ones were rejected and why.
func LoadLatestReport(path string, keep int, net *nn.Network) (*core.RunState, *LoadReport, error) {
	if keep < 1 {
		keep = 1
	}
	rep := &LoadReport{}
	var firstErr error
	for i := 0; i < keep; i++ {
		p := path
		if i > 0 {
			p = fmt.Sprintf("%s.%d", path, i)
		}
		st, err := Load(p, net)
		if err == nil {
			rep.Path = p
			return st, rep, nil
		}
		if !os.IsNotExist(err) {
			rep.Rejected = append(rep.Rejected, Rejection{Path: p, Err: err.Error()})
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p, err)
			}
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return nil, nil, fmt.Errorf("checkpoint: no checkpoint at %s", path)
}

// Writer is the core.CheckpointSink that persists every received RunState to
// Path, retaining the Keep most recent generations (Path, Path.1, …) via
// rename-only rotation.
type Writer struct {
	Path string
	// Keep is the number of generations retained; values below 1 keep just
	// Path itself.
	Keep int
}

// WriteState implements core.CheckpointSink.
func (w *Writer) WriteState(st *core.RunState) error {
	if err := atomicio.Rotate(w.Path, w.Keep); err != nil {
		return err
	}
	return Save(w.Path, st)
}
