package durability

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

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

// Recovery outcomes, ordered by increasing severity. A resumed log
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

// Stats reports the durability counters of one log.
type Stats struct {
	WALRecords int64  // records appended by this process
	WALBytes   int64  // framed bytes appended by this process
	Snapshots  int64  // snapshots written by this process
	Replayed   int    // WAL records replayed by the last Resume
	Outcome    string // recovery outcome of the last Resume ("" for Create)
}

// Log is the durable half of a session: the write-ahead log and the
// snapshot chain of one directory. The session that owns it keeps the
// engine and serializes every call. Apply appends each batch (and the
// post-apply graph fingerprint) to the WAL before the engine reconstructs
// it, so a crash at any point loses at most the one batch that was never
// acknowledged.
type Log struct {
	dir       string
	fsync     bool
	snapEvery int
	logf      func(string, ...any)

	wal         *walWriter
	walSeg      int    // active segment index
	lastSnapSeq uint64 // applies covered by engine.snap
	walRecords  int64
	walBytes    int64
	snapshots   int64
	replayed    int    // set once at Resume
	outcome     string // set once at Resume
	broken      error  // latched storage failure
}

func newLog(dir string, o Options) *Log {
	every := o.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Log{dir: dir, fsync: !o.NoFsync, snapEvery: every, logf: logf}
}

func (l *Log) segPath(i int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", walPrefix, i, walSuffix))
}

// Exists reports whether dir holds a durable session (its base snapshot
// is the existence marker, written last during Create).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, baseSnapName))
	return err == nil
}

// Create initializes a durable session in dir (created if needed, must
// not already hold one) for eng, a fresh engine its caller keeps. The
// seq-0 base snapshot is written before Create returns, so the session
// is recoverable from its first moment.
func Create(dir string, eng *incremental.Engine, o Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: session dir: %v", ErrStorage, err)
	}
	if Exists(dir) {
		return nil, fmt.Errorf("durability: session dir %s already initialized (use Resume)", dir)
	}
	l := newLog(dir, o)
	if err := l.writeSnapshotFile(baseSnapName, eng); err != nil {
		return nil, err
	}
	wal, err := openWAL(l.segPath(1), l.fsync)
	if err != nil {
		return nil, err
	}
	l.wal, l.walSeg = wal, 1
	if l.fsync {
		if err := syncDir(dir); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return l, nil
}

// Resume recovers the durable session in dir: it loads the newest valid
// snapshot, replays the WAL tail through the engine verifying the
// recorded fingerprint after every record, and classifies what it found
// (see the Outcome constants). Damage degrades along the candidate chain
// engine.snap → engine.snap.prev → base.snap; only when no candidate
// replays to matching fingerprints does Resume fail. A successful Resume
// writes a fresh snapshot and starts a new WAL segment, so the next
// recovery replays nothing. It returns the recovered engine, which the
// caller owns, and the log that records it.
func Resume(dir string, m *core.Model, opts core.Options, workers int, o Options) (*incremental.Engine, *Log, error) {
	if !Exists(dir) {
		return nil, nil, fmt.Errorf("durability: no session in %s", dir)
	}
	l := newLog(dir, o)

	segs, err := l.listSegments()
	if err != nil {
		return nil, nil, err
	}
	var all []walRecord
	perSegCount := make([]int, len(segs))
	damaged := make([]bool, len(segs)) // damage that may hide acknowledged records
	tornTail := false
	for i, seg := range segs {
		recs, dmg, err := readWALSegment(l.segPath(seg))
		if err != nil {
			return nil, nil, err
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
			l.logf("durability: %s unusable: %v", name, err)
			continue
		}
		e := incremental.Restore(st, m, opts, workers)
		if got := e.Fingerprint(); got != fp0 {
			lastErr = fmt.Errorf("%s: graph fingerprint mismatch (got %016x want %016x)", name, got, fp0)
			l.logf("durability: %s unusable: fingerprint mismatch", name)
			continue
		}
		n, ok := replayChain(e, all, uint64(st.Applies))
		if !ok {
			lastErr = fmt.Errorf("%s: wal replay diverged from recorded fingerprints", name)
			l.logf("durability: %s unusable: replay fingerprint mismatch", name)
			continue
		}
		eng, replayed, cacheDropped, fellBack = e, n, dropped, i > 0
		break
	}
	if eng == nil {
		return nil, nil, fmt.Errorf("durability: unrecoverable session in %s: %v", dir, lastErr)
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
		l.logf("durability: recovered %s at seq %d (replayed %d records): %s", dir, eng.Applies(), replayed, outcome)
	}

	l.replayed = replayed
	l.outcome = outcome
	lastSeg := 0
	if len(segs) > 0 {
		lastSeg = segs[len(segs)-1]
	}
	l.walSeg = lastSeg + 1 // never append to a possibly-damaged segment
	l.wal, err = openWAL(l.segPath(l.walSeg), l.fsync)
	if err != nil {
		return nil, nil, err
	}
	// Heal: a fresh snapshot at the recovered state bounds the next
	// recovery's replay (and replaces a damaged engine.snap). Failure is
	// not fatal — the WAL chain above remains sufficient.
	if err := l.snapshot(eng); err != nil {
		l.logf("durability: post-recovery snapshot failed: %v", err)
	}
	if l.fsync {
		if err := syncDir(dir); err != nil {
			l.wal.Close()
			return nil, nil, err
		}
	}
	return eng, l, nil
}

// listSegments returns the WAL segment indices present in dir, ascending.
func (l *Log) listSegments() ([]int, error) {
	entries, err := os.ReadDir(l.dir)
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

// Apply durably applies one delta batch to eng, the engine this log
// records: the graph is mutated, the batch and the post-mutation
// fingerprint are appended (and fsync'd, unless disabled) to the WAL, and
// only then does the engine reconstruct, so by the time the result is
// returned the batch is recoverable. It keeps eng.Apply's semantics: a
// batch the engine's Check refuses returns its error (wrapping
// incremental.ErrBadDelta) before anything is mutated or logged, and the
// log stays healthy; on reconstruction error or cancellation the mutation
// has landed (and is logged) and a retry with an empty batch resumes
// where it stopped. Every SnapshotEvery successful applies, the snapshot
// and the WAL segment rotate.
func (l *Log) Apply(ctx context.Context, eng *incremental.Engine, ops []graph.DeltaOp) (*core.Result, error) {
	if l.broken != nil {
		return nil, l.broken
	}
	if err := eng.Check(ops); err != nil {
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
				l.broken = fmt.Errorf("%w: mutation panic: %v", ErrStorage, p)
				panic(p)
			}
		}()
		eng.Mutate(ops)
	}()
	fp := eng.Fingerprint()
	seq := uint64(eng.Applies() + 1)
	n, err := l.wal.Append(walRecord{seq: seq, fp: fp, ops: ops})
	if err != nil {
		l.broken = err
		return nil, err
	}
	l.walRecords++
	l.walBytes += int64(n)

	res, rerr := eng.Apply(ctx, nil)

	if rerr == nil && l.snapEvery > 0 && seq-l.lastSnapSeq >= uint64(l.snapEvery) {
		if err := l.rotate(eng); err != nil {
			// Snapshot failure loses nothing (the WAL has every batch);
			// log and keep serving unless the WAL itself became unusable.
			l.logf("durability: snapshot rotation failed: %v", err)
		}
	}
	return res, rerr
}

// writeSnapshotFile writes eng's state to the named file of the session
// directory, atomically.
func (l *Log) writeSnapshotFile(name string, eng *incremental.Engine) error {
	st, fp := eng.State(), eng.Fingerprint()
	return WriteFileAtomic(filepath.Join(l.dir, name), l.fsync, func(w io.Writer) error {
		return writeSnapshot(w, st, fp)
	})
}

// snapshot writes engine.snap at eng's current state, preserving the
// previous snapshot as engine.snap.prev.
func (l *Log) snapshot(eng *incremental.Engine) error {
	snap := filepath.Join(l.dir, snapName)
	if _, err := os.Stat(snap); err == nil {
		if err := os.Rename(snap, filepath.Join(l.dir, snapPrevName)); err != nil {
			return fmt.Errorf("%w: rotate snapshot: %v", ErrStorage, err)
		}
	}
	if err := l.writeSnapshotFile(snapName, eng); err != nil {
		return err
	}
	l.lastSnapSeq = uint64(eng.Applies())
	l.snapshots++
	return nil
}

// rotate snapshots eng and starts a fresh WAL segment.
func (l *Log) rotate(eng *incremental.Engine) error {
	if err := l.snapshot(eng); err != nil {
		return err
	}
	if err := l.wal.Close(); err != nil {
		l.broken = err // the active segment is in an unknown state
		return err
	}
	l.walSeg++
	w, err := openWAL(l.segPath(l.walSeg), l.fsync)
	if err != nil {
		l.broken = err
		return err
	}
	l.wal = w
	if l.fsync {
		return syncDir(l.dir)
	}
	return nil
}

// Stats returns the log's durability counters.
func (l *Log) Stats() Stats {
	return Stats{
		WALRecords: l.walRecords,
		WALBytes:   l.walBytes,
		Snapshots:  l.snapshots,
		Replayed:   l.replayed,
		Outcome:    l.outcome,
	}
}

// Sync forces the active WAL segment to disk, regardless of NoFsync.
func (l *Log) Sync() error {
	if l.broken != nil {
		return l.broken
	}
	return l.wal.Sync()
}

// Close writes a final snapshot of eng (bounding the next Resume's replay
// to zero) and closes the WAL. A broken log skips the snapshot but still
// releases the file handle. The owner calls Close once and uses the log
// no more.
func (l *Log) Close(eng *incremental.Engine) error {
	var firstErr error
	if l.broken == nil {
		if err := l.snapshot(eng); err != nil {
			firstErr = err
			l.logf("durability: final snapshot failed: %v", err)
		}
	}
	if err := l.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
