// Package durability persists incremental reconstruction sessions across
// process death: every applied delta batch is appended to a write-ahead
// log (length + CRC-32C framed records carrying the batch's DeltaOp text
// encoding and the post-apply graph fingerprint) before the apply is
// acknowledged, and the engine state (graph, per-component fingerprints,
// cached component results) is snapshotted periodically with the
// temp-file + atomic-rename pattern. Recovery loads the newest valid
// snapshot, replays the WAL tail through the engine and verifies every
// fingerprint along the way, so a recovered session's next Apply is
// byte-identical to an uninterrupted rebuild of the same delta stream —
// or it refuses with a reason, never a wrong answer.
//
// A durable session is an in-memory session plus a Log: marioh.Session
// owns the incremental.Engine, the lock and the closed state for both
// kinds, and passes the engine to the Log's Apply and Close. The Log holds
// the WAL, the snapshot chain and recovery, and no engine or lock of its
// own: Create starts a log for a fresh engine, and Resume returns a
// recovered engine together with its log.
package durability

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"strings"

	"marioh/internal/graph"
)

// castagnoli is the CRC-32C table shared by WAL framing and snapshot
// section checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// walFrameHeader is the fixed frame prefix: uint32 LE payload length,
	// uint32 LE CRC-32C of the payload.
	walFrameHeader = 8
	// maxWALPayload bounds a single record so a corrupt length field can
	// never drive a multi-gigabyte allocation.
	maxWALPayload = 64 << 20
)

// walRecord is one acknowledged delta batch: the sequence number the
// apply was assigned (the engine's apply counter), the batch's ops, and
// the whole-graph fingerprint immediately after mutating — the value
// recovery verifies against after replaying the record.
type walRecord struct {
	seq uint64
	fp  uint64
	ops []graph.DeltaOp
}

// encodeWALRecord frames one record: a "batch <seq> <fp>" header line
// followed by the ops in the graph delta text format, wrapped in the
// length+CRC frame.
func encodeWALRecord(rec walRecord) []byte {
	var payload bytes.Buffer
	fmt.Fprintf(&payload, "batch %d %016x\n", rec.seq, rec.fp)
	// bytes.Buffer writes cannot fail.
	_ = graph.WriteDeltas(&payload, rec.ops)
	frame := make([]byte, walFrameHeader+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload.Bytes(), castagnoli))
	copy(frame[walFrameHeader:], payload.Bytes())
	return frame
}

// decodeWALPayload parses a CRC-verified payload back into a record.
func decodeWALPayload(payload []byte) (walRecord, error) {
	nl := bytes.IndexByte(payload, '\n')
	if nl < 0 {
		return walRecord{}, errors.New("durability: wal record: missing batch header")
	}
	f := strings.Fields(string(payload[:nl]))
	if len(f) != 3 || f[0] != "batch" {
		return walRecord{}, fmt.Errorf("durability: wal record: bad batch header %q", string(payload[:nl]))
	}
	seq, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return walRecord{}, fmt.Errorf("durability: wal record: bad seq %q", f[1])
	}
	fp, err := strconv.ParseUint(f[2], 16, 64)
	if err != nil || len(f[2]) != 16 {
		return walRecord{}, fmt.Errorf("durability: wal record: bad fingerprint %q", f[2])
	}
	ops, err := graph.ReadDeltas(bytes.NewReader(payload[nl+1:]))
	if err != nil {
		return walRecord{}, fmt.Errorf("durability: wal record: %v", err)
	}
	return walRecord{seq: seq, fp: fp, ops: ops}, nil
}

// walDamage classifies how a WAL segment's byte stream ended.
type walDamage int

const (
	// walClean: the segment decoded fully.
	walClean walDamage = iota
	// walTorn: the invalid region extends to end of file — the expected
	// artifact of a crash mid-append. The partial record was never
	// acknowledged (appends fsync before the apply returns), so ignoring
	// it loses nothing.
	walTorn
	// walCorrupt: an invalid record with more bytes after it — not a torn
	// append but damage inside previously-acknowledged history. Only the
	// prefix before the damage is usable.
	walCorrupt
)

func (d walDamage) String() string {
	switch d {
	case walClean:
		return "clean"
	case walTorn:
		return "torn"
	default:
		return "corrupt"
	}
}

// decodeWALStream walks a segment's bytes and returns every record of the
// longest valid prefix, plus how the stream ended. The torn/corrupt
// distinction is positional: damage that reaches EOF is a crash artifact
// (torn), damage followed by more bytes means acknowledged history was
// corrupted in place.
func decodeWALStream(data []byte) ([]walRecord, walDamage) {
	var recs []walRecord
	off := 0
	for off < len(data) {
		rest := len(data) - off
		if rest < walFrameHeader {
			return recs, walTorn
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > rest-walFrameHeader {
			// The record claims bytes past EOF: a torn append (or a
			// garbage length field whose damage also reaches EOF).
			return recs, walTorn
		}
		if length > maxWALPayload {
			return recs, walCorrupt
		}
		payload := data[off+walFrameHeader : off+walFrameHeader+length]
		rec, err := walRecord{}, error(nil)
		if crc32.Checksum(payload, castagnoli) == crc {
			rec, err = decodeWALPayload(payload)
		} else {
			err = errors.New("crc mismatch")
		}
		if err != nil {
			if off+walFrameHeader+length == len(data) {
				return recs, walTorn
			}
			return recs, walCorrupt
		}
		recs = append(recs, rec)
		off += walFrameHeader + length
	}
	return recs, walClean
}

// readWALSegment loads one segment file. A missing file reads as an empty
// clean segment; only real I/O failures surface as errors.
func readWALSegment(path string) ([]walRecord, walDamage, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, walClean, nil
	}
	if err != nil {
		return nil, walClean, fmt.Errorf("%w: read wal %s: %v", ErrStorage, path, err)
	}
	recs, dmg := decodeWALStream(data)
	return recs, dmg, nil
}

// walWriter appends framed records to an open WAL segment.
type walWriter struct {
	f     *os.File
	fsync bool
}

// openWAL opens (creating if needed) a segment for appending.
func openWAL(path string, fsync bool) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: open wal %s: %v", ErrStorage, path, err)
	}
	return &walWriter{f: f, fsync: fsync}, nil
}

// Append frames, writes and (unless fsync is off) syncs one record,
// returning the framed size. The record is as durable as the writer's
// fsync mode allows when Append returns; callers must not acknowledge
// the batch if it errors.
func (w *walWriter) Append(rec walRecord) (int, error) {
	frame := encodeWALRecord(rec)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("%w: wal append: %v", ErrStorage, err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("%w: wal fsync: %v", ErrStorage, err)
		}
	}
	return len(frame), nil
}

// Sync forces the segment to disk regardless of the fsync mode.
func (w *walWriter) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%w: wal fsync: %v", ErrStorage, err)
	}
	return nil
}

// Close syncs and closes the segment.
func (w *walWriter) Close() error {
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return fmt.Errorf("%w: wal close: %v", ErrStorage, serr)
	}
	if cerr != nil {
		return fmt.Errorf("%w: wal close: %v", ErrStorage, cerr)
	}
	return nil
}
