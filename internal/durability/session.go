package durability

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

// ErrClosed is returned by operations on a closed session.
var ErrClosed = errors.New("durability: session closed")

// Directory layout of one durable session:
//
//	base.snap        seq-0 snapshot written once at Create (last-resort
//	                 recovery candidate; doubles as the existence marker)
//	engine.snap      newest periodic snapshot
//	engine.snap.prev previous snapshot, kept one generation
//	wal-000001.log   WAL segments; the highest index was active. Segments
//	                 are never appended to again after a restart and never
//	                 deleted, so replay can always restart from base.snap.
const (
	baseSnapName = "base.snap"
	snapName     = "engine.snap"
	snapPrevName = "engine.snap.prev"
	walPrefix    = "wal-"
	walSuffix    = ".log"
)

// Recovery outcomes, ordered by increasing severity. A resumed session
// reports the most severe condition it observed.
const (
	// OutcomeClean: newest snapshot loaded, every WAL record replayed and
	// fingerprint-verified.
	OutcomeClean = "clean"
	// OutcomeTornTail: the active segment ended in a partial record — the
	// expected artifact of a crash mid-append. The batch was never
	// acknowledged; nothing is lost.
	OutcomeTornTail = "torn-tail"
	// OutcomeCacheDropped: the snapshot's cache section was damaged; the
	// graph restored exactly but cached component results rebuild on the
	// next Apply.
	OutcomeCacheDropped = "cache-dropped"
	// OutcomeSnapshotFallback: the newest snapshot was unusable and an
	// older candidate (engine.snap.prev or base.snap) recovered the
	// session, with a correspondingly longer replay.
	OutcomeSnapshotFallback = "snapshot-fallback"
	// OutcomeLostSuffix: acknowledged batches could not be replayed (WAL
	// damage beyond the last recoverable record). The session resumes at
	// the last verified state; its apply counter tells callers which
	// batches are reflected.
	OutcomeLostSuffix = "lost-suffix"
)

const defaultSnapshotEvery = 8

// Options configures a durable session directory.
type Options struct {
	// NoFsync skips fsync on WAL appends and snapshot renames. Appends
	// still reach the kernel before an apply is acknowledged (surviving a
	// process kill), but not necessarily the disk (power loss may drop
	// acknowledged batches).
	NoFsync bool
	// SnapshotEvery is the number of applies between periodic snapshots;
	// 0 means the default (8), negative disables periodic snapshots
	// (Close and Resume still write one).
	SnapshotEvery int
	// Logf receives recovery and degradation notices; nil discards them.
	Logf func(format string, args ...any)
}

// Stats reports the durability counters of one session.
type Stats struct {
	WALRecords int64  // records appended by this process
	WALBytes   int64  // framed bytes appended by this process
	Snapshots  int64  // snapshots written by this process
	Replayed   int    // WAL records replayed by the last Resume
	Outcome    string // recovery outcome of the last Resume ("" for Create)
}

// Session wraps an incremental.Engine with a write-ahead log and periodic
// snapshots under one directory. Every Apply appends the batch (and the
// post-apply graph fingerprint) to the WAL before reconstructing, so a
// crash at any point loses at most the one batch that was never
// acknowledged.
type Session struct {
	dir       string
	fsync     bool
	snapEvery int
	logf      func(string, ...any)

	mu          sync.Mutex
	eng         *incremental.Engine // guarded by mu
	wal         *walWriter          // guarded by mu
	walSeg      int                 // guarded by mu; active segment index
	lastSnapSeq uint64              // guarded by mu; applies covered by engine.snap
	walRecords  int64               // guarded by mu
	walBytes    int64               // guarded by mu
	snapshots   int64               // guarded by mu
	replayed    int                 // guarded by mu; set once at Resume
	outcome     string              // guarded by mu; set once at Resume
	broken      error               // guarded by mu; latched storage failure
	closed      bool                // guarded by mu
}

func newSession(dir string, o Options) *Session {
	every := o.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Session{dir: dir, fsync: !o.NoFsync, snapEvery: every, logf: logf}
}

func (s *Session) segPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", walPrefix, i, walSuffix))
}

// Exists reports whether dir holds a durable session (its base snapshot
// is the existence marker, written last during Create).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, baseSnapName))
	return err == nil
}

// Create initializes a durable session in dir (created if needed, must
// not already hold one) over g. Like incremental.New it takes ownership
// of g. The seq-0 base snapshot is written before Create returns, so the
// session is recoverable from its first moment.
func Create(dir string, g *graph.Graph, m *core.Model, opts core.Options, workers int, o Options) (*Session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: session dir: %v", ErrStorage, err)
	}
	if Exists(dir) {
		return nil, fmt.Errorf("durability: session dir %s already initialized (use Resume)", dir)
	}
	s := newSession(dir, o)
	s.eng = incremental.New(g, m, opts, workers)
	st := s.eng.State()
	fp := s.eng.Fingerprint()
	base := filepath.Join(dir, baseSnapName)
	if err := WriteFileAtomic(base, s.fsync, func(w io.Writer) error {
		return writeSnapshot(w, st, fp)
	}); err != nil {
		return nil, err
	}
	wal, err := openWAL(s.segPath(1), s.fsync)
	if err != nil {
		return nil, err
	}
	s.wal, s.walSeg = wal, 1
	if s.fsync {
		if err := syncDir(dir); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// Resume recovers the durable session in dir: it loads the newest valid
// snapshot, replays the WAL tail through the engine verifying the
// recorded fingerprint after every record, and classifies what it found
// (see the Outcome constants). Damage degrades along the candidate chain
// engine.snap → engine.snap.prev → base.snap; only when no candidate
// replays to matching fingerprints does Resume fail. A successful Resume
// writes a fresh snapshot and starts a new WAL segment, so the next
// recovery replays nothing.
func Resume(dir string, m *core.Model, opts core.Options, workers int, o Options) (*Session, error) {
	if !Exists(dir) {
		return nil, fmt.Errorf("durability: no session in %s", dir)
	}
	s := newSession(dir, o)

	segs, err := s.listSegments()
	if err != nil {
		return nil, err
	}
	var all []walRecord
	perSegCount := make([]int, len(segs))
	damaged := make([]bool, len(segs)) // damage that may hide acknowledged records
	tornTail := false
	for i, seg := range segs {
		recs, dmg, err := readWALSegment(s.segPath(seg))
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
		perSegCount[i] = len(recs)
		switch {
		case dmg == walClean:
		case i == len(segs)-1 && dmg == walTorn:
			tornTail = true
		default:
			damaged[i] = true
		}
	}
	var maxSeen uint64
	for _, rec := range all {
		if rec.seq > maxSeen {
			maxSeen = rec.seq
		}
	}

	// Candidate chain, newest first. base.snap always exists (Exists
	// passed), so the chain is never empty.
	var cands []string
	for _, name := range []string{snapName, snapPrevName, baseSnapName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			cands = append(cands, name)
		}
	}
	var (
		eng          *incremental.Engine
		replayed     int
		cacheDropped bool
		fellBack     bool
		lastErr      error
	)
	for i, name := range cands {
		st, fp0, dropped, err := readSnapshotFile(filepath.Join(dir, name))
		if err != nil {
			lastErr = fmt.Errorf("%s: %v", name, err)
			s.logf("durability: %s unusable: %v", name, err)
			continue
		}
		e := incremental.Restore(st, m, opts, workers)
		if got := e.Fingerprint(); got != fp0 {
			lastErr = fmt.Errorf("%s: graph fingerprint mismatch (got %016x want %016x)", name, got, fp0)
			s.logf("durability: %s unusable: fingerprint mismatch", name)
			continue
		}
		n, ok := replayChain(e, all, uint64(st.Applies))
		if !ok {
			lastErr = fmt.Errorf("%s: wal replay diverged from recorded fingerprints", name)
			s.logf("durability: %s unusable: replay fingerprint mismatch", name)
			continue
		}
		eng, replayed, cacheDropped, fellBack = e, n, dropped, i > 0
		break
	}
	if eng == nil {
		return nil, fmt.Errorf("durability: unrecoverable session in %s: %v", dir, lastErr)
	}

	// Loss accounting. Replay is chain-contiguous, so reaching maxSeen
	// proves every decoded record newer than the snapshot was applied —
	// and any record hidden by mid-log damage must predate the snapshot.
	// The one blind spot: damage with no decoded record anywhere after it
	// may hide batches newer than everything recovered.
	lost := uint64(eng.Applies()) < maxSeen
	for i := range segs {
		if !damaged[i] {
			continue
		}
		decodedAfter := false
		for j := i + 1; j < len(segs); j++ {
			if perSegCount[j] > 0 {
				decodedAfter = true
				break
			}
		}
		if !decodedAfter {
			lost = true
		}
	}

	outcome := OutcomeClean
	switch {
	case lost:
		outcome = OutcomeLostSuffix
	case fellBack:
		outcome = OutcomeSnapshotFallback
	case cacheDropped:
		outcome = OutcomeCacheDropped
	case tornTail:
		outcome = OutcomeTornTail
	}
	if outcome != OutcomeClean {
		s.logf("durability: recovered %s at seq %d (replayed %d records): %s", dir, eng.Applies(), replayed, outcome)
	}

	s.eng = eng
	s.replayed = replayed
	s.outcome = outcome
	lastSeg := 0
	if len(segs) > 0 {
		lastSeg = segs[len(segs)-1]
	}
	s.walSeg = lastSeg + 1 // never append to a possibly-damaged segment
	s.wal, err = openWAL(s.segPath(s.walSeg), s.fsync)
	if err != nil {
		return nil, err
	}
	// Heal: a fresh snapshot at the recovered state bounds the next
	// recovery's replay (and replaces a damaged engine.snap). Failure is
	// not fatal — the WAL chain above remains sufficient.
	if err := s.writeSnapshotLocked(); err != nil {
		s.logf("durability: post-recovery snapshot failed: %v", err)
	}
	if s.fsync {
		if err := syncDir(dir); err != nil {
			s.wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// listSegments returns the WAL segment indices present in dir, ascending.
func (s *Session) listSegments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("%w: session dir: %v", ErrStorage, err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// replayChain replays WAL records into an engine restored at sequence
// from, accepting records in exact sequence order: already-covered
// sequence numbers are skipped, a gap ends the chain (nothing past it can
// be trusted to apply to the right state). After each accepted record the
// engine's whole-graph fingerprint must equal the one recorded at append
// time; a mismatch proves the candidate and the log disagree and fails
// the candidate. Returns the number of records applied.
func replayChain(e *incremental.Engine, recs []walRecord, from uint64) (int, bool) {
	next := from + 1
	applied := 0
	for _, rec := range recs {
		if rec.seq < next {
			continue
		}
		if rec.seq > next {
			break
		}
		e.Mutate(rec.ops)
		if e.Fingerprint() != rec.fp {
			return applied, false
		}
		e.SetApplies(int(rec.seq))
		applied++
		next++
	}
	return applied, true
}

// Apply durably applies one delta batch: the graph is mutated, the batch
// and the post-mutation fingerprint are appended (and fsync'd, unless
// disabled) to the WAL, and only then does the engine reconstruct — so
// by the time the result is returned the batch is recoverable. Mirrors
// incremental.Engine.Apply semantics: a batch the engine's Check refuses
// returns its error (wrapping incremental.ErrBadDelta) before anything is
// mutated or logged, and the session stays healthy; on reconstruction
// error or cancellation the mutation has landed (and is logged) and a
// retry with an empty batch resumes where it stopped.
func (s *Session) Apply(ctx context.Context, ops []graph.DeltaOp) (*core.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.broken != nil {
		return nil, s.broken
	}
	if err := s.eng.Check(ops); err != nil {
		return nil, err
	}

	func() {
		defer func() {
			if p := recover(); p != nil {
				// A panic mid-mutation (e.g. a weight overflow deep in a
				// graph primitive) leaves the in-memory graph ahead of the
				// log; any record appended after it could never replay to
				// a matching fingerprint, so latch broken instead of
				// poisoning the log.
				s.broken = fmt.Errorf("%w: mutation panic: %v", ErrStorage, p)
				panic(p)
			}
		}()
		s.eng.Mutate(ops)
	}()
	fp := s.eng.Fingerprint()
	seq := uint64(s.eng.Applies() + 1)
	n, err := s.wal.Append(walRecord{seq: seq, fp: fp, ops: ops})
	if err != nil {
		s.broken = err
		return nil, err
	}
	s.walRecords++
	s.walBytes += int64(n)

	res, rerr := s.eng.Apply(ctx, nil)

	if rerr == nil && s.snapEvery > 0 && seq-s.lastSnapSeq >= uint64(s.snapEvery) {
		if err := s.rotateLocked(); err != nil {
			// Snapshot failure loses nothing (the WAL has every batch);
			// log and keep serving unless the WAL itself became unusable.
			s.logf("durability: snapshot rotation failed: %v", err)
		}
	}
	return res, rerr
}

// writeSnapshotLocked writes engine.snap at the engine's current state,
// preserving the previous snapshot as engine.snap.prev. Callers hold mu
// (or have exclusive access during Create/Resume).
func (s *Session) writeSnapshotLocked() error {
	st := s.eng.State()
	fp := s.eng.Fingerprint()
	snap := filepath.Join(s.dir, snapName)
	if _, err := os.Stat(snap); err == nil {
		if err := os.Rename(snap, filepath.Join(s.dir, snapPrevName)); err != nil {
			return fmt.Errorf("%w: rotate snapshot: %v", ErrStorage, err)
		}
	}
	if err := WriteFileAtomic(snap, s.fsync, func(w io.Writer) error {
		return writeSnapshot(w, st, fp)
	}); err != nil {
		return err
	}
	s.lastSnapSeq = uint64(s.eng.Applies())
	s.snapshots++
	return nil
}

// rotateLocked snapshots the engine and starts a fresh WAL segment.
func (s *Session) rotateLocked() error {
	if err := s.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		s.broken = err // the active segment is in an unknown state
		return err
	}
	s.walSeg++
	w, err := openWAL(s.segPath(s.walSeg), s.fsync)
	if err != nil {
		s.broken = err
		return err
	}
	s.wal = w
	if s.fsync {
		return syncDir(s.dir)
	}
	return nil
}

// Graph returns the session's live graph; callers must not mutate it.
func (s *Session) Graph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Graph()
}

// Applies returns the engine's apply counter (the WAL sequence number of
// the newest acknowledged batch).
func (s *Session) Applies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Applies()
}

// LastDirty returns the number of components the most recent Apply
// recomputed.
func (s *Session) LastDirty() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.LastDirty()
}

// Components returns the number of live (edge-bearing) components of the
// session's graph.
func (s *Session) Components() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Components()
}

// Stats returns the session's durability counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALRecords: s.walRecords,
		WALBytes:   s.walBytes,
		Snapshots:  s.snapshots,
		Replayed:   s.replayed,
		Outcome:    s.outcome,
	}
}

// Sync forces the active WAL segment to disk, regardless of NoFsync.
func (s *Session) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	return s.wal.Sync()
}

// Close writes a final snapshot (bounding the next Resume's replay to
// zero) and closes the WAL. Safe to call twice; a broken session skips
// the snapshot but still releases the file handle.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.broken == nil {
		if err := s.writeSnapshotLocked(); err != nil {
			firstErr = err
			s.logf("durability: final snapshot failed: %v", err)
		}
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
