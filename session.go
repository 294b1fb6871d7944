package marioh

import (
	"context"
	"errors"
	"io"
	"sync"

	"marioh/internal/durability"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

// DeltaKind discriminates the mutation a DeltaOp performs.
type DeltaKind = graph.DeltaKind

// The delta operations a projected-graph edge stream carries.
const (
	// DeltaAdd adds W (> 0) to ω(U, V), inserting the edge if absent.
	DeltaAdd = graph.DeltaAdd
	// DeltaRemove deletes the edge {U, V} regardless of its weight.
	DeltaRemove = graph.DeltaRemove
	// DeltaSet sets ω(U, V) to exactly W (≥ 0; 0 deletes the edge).
	DeltaSet = graph.DeltaSet
)

// DeltaOp is one mutation of a projected graph: an edge insert or weight
// increase, a delete, or an absolute weight change.
type DeltaOp = graph.DeltaOp

// Delta is a batch of projected-graph mutations, the unit of change a
// Session consumes. Ops are applied in order; a batch may freely mix
// kinds and reference nodes beyond the graph's current node set (which
// grows to fit).
type Delta struct {
	Ops []DeltaOp
}

// ReadDeltas parses the line-oriented delta text format: "+ u v w" (add),
// "- u v" (delete), "= u v w" (set). Blank lines and "%" comments are
// skipped.
func ReadDeltas(r io.Reader) ([]DeltaOp, error) { return graph.ReadDeltas(r) }

// WriteDeltas serializes a delta stream in the format ReadDeltas parses.
func WriteDeltas(w io.Writer, ops []DeltaOp) error { return graph.WriteDeltas(w, ops) }

// ErrBadDelta is the error Session.Apply refuses a delta batch with
// before changing anything; match it with errors.Is. The message names
// the first offending op.
var ErrBadDelta = incremental.ErrBadDelta

// Session is a long-lived incremental reconstruction: it holds a
// projected graph, the reconstructed hypergraph of every connected
// component, and the per-component enumeration state, and recomputes only
// the components each delta batch touches.
//
// The determinism guarantee is the headline: after any sequence of Apply
// calls, the returned reconstruction is byte-identical to a from-scratch
// Reconstruct of the mutated graph with the same configuration (asserted
// by the incremental-equivalence tests and the CI incr-check job). The
// dirty components reconstruct through the piece runner shards use, over
// WithParallelism workers. Under WithMaxCliqueLimit an Apply fails with
// ErrCliqueBudget exactly when that rebuild would.
//
// A Session is safe for concurrent use; Apply calls serialize.
//
// A session opened durable (SessionConfig.Durable) additionally
// write-ahead-logs every delta batch and snapshots its engine state under
// a directory, so a crashed process resumes byte-identically to a cold
// rebuild of the same delta sequence (see DurableOptions).
type Session struct {
	mu  sync.Mutex
	eng *incremental.Engine // guarded by mu; nil when dur is set
	dur *durability.Session // guarded by mu; nil for in-memory sessions
}

// SessionStats is a snapshot of a Session's state.
type SessionStats struct {
	// Nodes and Edges describe the session's current graph.
	Nodes, Edges int
	// Components is the number of live (edge-bearing) connected
	// components.
	Components int
	// Applies is the number of Apply calls served.
	Applies int
	// LastDirty is the number of components the most recent Apply
	// recomputed.
	LastDirty int

	// Durable reports whether the session persists to disk; the fields
	// below are zero for in-memory sessions.
	Durable bool
	// WALRecords and WALBytes count the delta batches (and their framed
	// bytes) this process appended to the write-ahead log.
	WALRecords, WALBytes int64
	// Snapshots counts the engine snapshots this process wrote.
	Snapshots int64
	// Replayed is the number of WAL records the last resume
	// replayed to reach the recovered state.
	Replayed int
	// RecoveryOutcome classifies the last recovery: "clean", "torn-tail",
	// "cache-dropped", "snapshot-fallback", or "lost-suffix" (empty for a
	// session created in this process).
	RecoveryOutcome string
}

// SessionConfig selects what kind of Session NewSession opens. The zero
// value plus a Graph opens a plain in-memory session; set Durable to
// persist to a directory, and Resume to recover a directory's existing
// session instead of creating one.
type SessionConfig struct {
	// Graph is the projected graph to reconstruct over. Required unless
	// Resume is set (a resumed session recovers its graph from disk). The
	// graph is copied; the caller's Graph is never mutated.
	Graph *Graph
	// Durable, when non-nil, backs the session by Durable.Dir: every
	// Apply appends its delta batch to a write-ahead log before
	// reconstructing, and engine state is snapshotted periodically.
	Durable *DurableOptions
	// Resume recovers the existing durable session in Durable.Dir
	// (newest valid snapshot + verified WAL replay) instead of creating
	// a new one. Requires Durable.
	Resume bool
}

// NewSession is the session entrypoint: it opens an in-memory, durable,
// or resumed incremental reconstruction session over r's model and
// configuration, selected by cfg. The graph is copied; the caller's graph
// is never mutated. The session performs no work until the first Apply —
// Apply with an empty Delta produces the initial full reconstruction.
//
// A durable session appends every Apply's delta batch to a write-ahead
// log before reconstructing and snapshots the engine periodically, so
// after a crash a Resume recovers it byte-identically to a cold rebuild;
// its directory must not already hold a session. A Resume loads the
// newest valid snapshot and replays the WAL tail, verifying the recorded
// graph fingerprint after every record. A torn final record (the
// expected crash artifact) is discarded — that batch was never
// acknowledged. Deeper damage degrades along the snapshot chain and is
// reported in SessionStats.RecoveryOutcome; only when no consistent state
// can be proven does the Resume return an error, never a wrong answer.
//
// The model is pinned at open time: a later r.Train or r.SetModel does
// not affect the session (mixing models across components would break
// the byte-equality guarantee). For Resume, the reconstructor must carry
// the same model and configuration the session was created with.
//
// ctx bounds the open itself: cancellation is honored between the open's
// phases (an in-flight snapshot load or WAL replay step is not
// interrupted). The returned Session is not bound to ctx; each Apply
// takes its own context.
func (r *Reconstructor) NewSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	if ctx == nil {
		return nil, errors.New("marioh: nil context")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Resume:
		if cfg.Durable == nil {
			return nil, errors.New("marioh: SessionConfig.Resume requires Durable")
		}
		if cfg.Graph != nil {
			return nil, errors.New("marioh: SessionConfig.Resume recovers its graph from disk; Graph must be nil")
		}
		s, err := r.resumeSession(*cfg.Durable)
		if err != nil {
			return nil, err
		}
		// The resume may have outlived the caller's interest; don't hand
		// back a session the caller has already abandoned.
		if err := ctx.Err(); err != nil {
			_ = s.Close()
			return nil, err
		}
		return s, nil
	case cfg.Durable != nil:
		return r.openDurableSession(cfg.Graph, *cfg.Durable)
	default:
		return r.openSession(cfg.Graph)
	}
}

func (r *Reconstructor) openSession(g *Graph) (*Session, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	if g == nil {
		return nil, errors.New("marioh: nil session graph")
	}
	return &Session{
		eng: incremental.New(g.Clone(), m, r.reconstructOptions(nil), r.cfg.parallelism),
	}, nil
}

// DurableOptions configures an on-disk session directory.
type DurableOptions struct {
	// Dir is the session directory (created by NewSession if needed).
	// One directory holds exactly one session.
	Dir string
	// NoFsync skips fsync on WAL appends and snapshot renames. Appends
	// still reach the kernel before Apply returns — the session survives a
	// process kill — but a power loss may drop acknowledged batches.
	NoFsync bool
	// SnapshotEvery is the number of applies between engine snapshots; 0
	// means the default (8), negative disables periodic snapshots (Close
	// and a Resume still write one).
	SnapshotEvery int
	// Logf receives recovery and degradation notices; nil discards them.
	Logf func(format string, args ...any)
}

func (o DurableOptions) internal() durability.Options {
	return durability.Options{NoFsync: o.NoFsync, SnapshotEvery: o.SnapshotEvery, Logf: o.Logf}
}

// HasDurableSession reports whether dir holds a durable session (and so
// whether to open it with SessionConfig.Resume).
func HasDurableSession(dir string) bool { return durability.Exists(dir) }

func (r *Reconstructor) openDurableSession(g *Graph, o DurableOptions) (*Session, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	if g == nil {
		return nil, errors.New("marioh: nil session graph")
	}
	if o.Dir == "" {
		return nil, errors.New("marioh: durable session needs a directory")
	}
	dur, err := durability.Create(o.Dir, g.Clone(), m, r.reconstructOptions(nil), r.cfg.parallelism, o.internal())
	if err != nil {
		return nil, err
	}
	return &Session{dur: dur}, nil
}

func (r *Reconstructor) resumeSession(o DurableOptions) (*Session, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	dur, err := durability.Resume(o.Dir, m, r.reconstructOptions(nil), r.cfg.parallelism, o.internal())
	if err != nil {
		return nil, err
	}
	return &Session{dur: dur}, nil
}

// Apply mutates the session graph with a batch of deltas and returns the
// reconstruction of the whole mutated graph, recomputing only the
// components the batch touched; everything else is merged from the
// session cache. Result.DirtyComponents reports how many components were
// recomputed, and Progress events emitted during the Apply carry the same
// count in their Dirty field.
//
// A batch is refused whole, with ErrBadDelta and a nil Result, when one of
// its ops is one ReadDeltas would reject or when its adds take a pair's
// weight past math.MaxInt32 (following the weight through the batch from
// its current value). A refused batch changes nothing: the graph, the
// Applies counter and a durable session's log stay as they were, so the
// session keeps serving.
//
// Cancelling ctx stops the recomputation; the deltas are already applied,
// and the partial result is returned with ctx's error. Components that
// finished stay cached, so retrying with an empty Delta completes the
// interrupted work.
func (s *Session) Apply(ctx context.Context, d Delta) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return s.dur.Apply(ctx, d.Ops)
	}
	return s.eng.Apply(ctx, d.Ops)
}

// Graph returns a copy of the session's current projected graph.
func (s *Session) Graph() *Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return s.dur.Graph().Clone()
	}
	return s.eng.Graph().Clone()
}

// Stats snapshots the session.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		g := s.dur.Graph()
		ds := s.dur.Stats()
		return SessionStats{
			Nodes:           g.NumNodes(),
			Edges:           g.NumEdges(),
			Components:      s.dur.Components(),
			Applies:         s.dur.Applies(),
			LastDirty:       s.dur.LastDirty(),
			Durable:         true,
			WALRecords:      ds.WALRecords,
			WALBytes:        ds.WALBytes,
			Snapshots:       ds.Snapshots,
			Replayed:        ds.Replayed,
			RecoveryOutcome: ds.Outcome,
		}
	}
	g := s.eng.Graph()
	return SessionStats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Components: s.eng.Components(),
		Applies:    s.eng.Applies(),
		LastDirty:  s.eng.LastDirty(),
	}
}

// Sync forces the durable session's write-ahead log to disk, regardless
// of NoFsync. It is a no-op for in-memory sessions.
func (s *Session) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return s.dur.Sync()
	}
	return nil
}

// Close writes a final snapshot (so the next Resume replays
// nothing) and releases the durable session's file handles. In-memory
// sessions close trivially. Safe to call twice; a closed session's
// Apply returns an error.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return s.dur.Close()
	}
	return nil
}
