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

// ErrSessionClosed is the error Apply and Sync return once the Session
// is closed, for every kind of session; match it with errors.Is.
var ErrSessionClosed = errors.New("marioh: session closed")

// Session is a long-lived incremental reconstruction: it holds a
// projected graph, the reconstructed hypergraph of every connected
// component, and the per-component enumeration state, and recomputes only
// the components each delta batch touches.
//
// The determinism guarantee is the headline: after any sequence of Apply
// calls, the returned reconstruction is byte-identical to a from-scratch
// Reconstruct of the mutated graph with the same configuration (asserted
// by the incremental-equivalence tests and the CI incr-check job). The
// dirty components reconstruct through the round engine, each on its
// induced subgraph, over WithParallelism workers. Under
// WithMaxCliqueLimit an Apply fails with ErrCliqueBudget exactly when that
// rebuild would.
//
// A Session is safe for concurrent use; Apply calls serialize.
//
// A durable session (SessionConfig.Durable) is an in-memory session plus
// a log: it write-ahead-logs every delta batch and snapshots its engine
// state under a directory, so a crashed process resumes byte-identically
// to a cold rebuild of the same delta sequence (see DurableOptions).
// Everything else, Close and ErrSessionClosed included, behaves the same
// for both kinds.
type Session struct {
	mu     sync.Mutex
	eng    *incremental.Engine // guarded by mu
	log    *durability.Log     // guarded by mu; nil for in-memory sessions
	closed bool                // guarded by mu
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
// Every kind holds the same engine; a durable or resumed session adds a
// log to it. The log appends every Apply's delta batch to a write-ahead
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
	if cfg.Resume {
		if cfg.Durable == nil {
			return nil, errors.New("marioh: SessionConfig.Resume requires Durable")
		}
		if cfg.Graph != nil {
			return nil, errors.New("marioh: SessionConfig.Resume recovers its graph from disk; Graph must be nil")
		}
	}
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	opts := r.cfg.opts
	if cfg.Resume {
		eng, log, err := durability.Resume(cfg.Durable.Dir, m, opts, opts.Parallelism, cfg.Durable.internal())
		if err != nil {
			return nil, err
		}
		s := &Session{eng: eng, log: log}
		// The resume may have outlived the caller's interest; don't hand
		// back a session the caller has already abandoned.
		if err := ctx.Err(); err != nil {
			_ = s.Close()
			return nil, err
		}
		return s, nil
	}
	if cfg.Graph == nil {
		return nil, errors.New("marioh: nil session graph")
	}
	if cfg.Durable != nil && cfg.Durable.Dir == "" {
		return nil, errors.New("marioh: durable session needs a directory")
	}
	s := &Session{eng: incremental.New(cfg.Graph.Clone(), m, opts, opts.Parallelism)}
	if cfg.Durable != nil {
		log, err := durability.Create(cfg.Durable.Dir, s.eng, cfg.Durable.internal())
		if err != nil {
			return nil, err
		}
		s.log = log
	}
	return s, nil
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

// Apply mutates the session graph with a batch of deltas and returns the
// reconstruction of the whole mutated graph, recomputing only the
// components the batch touched; everything else is merged from the
// session cache. Result.DirtyComponents reports how many components were
// recomputed, and Progress events emitted during the Apply carry the same
// count in their Dirty field and their dirty component's index (among the
// dirty components, ordered by smallest node) in Target.
//
// A batch is refused whole, with ErrBadDelta and a nil Result, when one of
// its ops is one ReadDeltas would reject or when its adds take a pair's
// weight past math.MaxInt32 (following the weight through the batch from
// its current value). A refused batch changes nothing: the graph, the
// Applies counter and a durable session's log stay as they were, so the
// session keeps serving. A closed session refuses every batch the same
// way, with ErrSessionClosed.
//
// Cancelling ctx, or a component past WithMaxCliqueLimit, stops the
// recomputation; the deltas are already applied, and the partial result
// is returned with the error. It merges the finished components with the
// partial results of the failed or interrupted ones. Components that
// finished stay cached, so retrying with an empty Delta completes the
// interrupted work.
func (s *Session) Apply(ctx context.Context, d Delta) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.log != nil {
		return s.log.Apply(ctx, s.eng, d.Ops)
	}
	return s.eng.Apply(ctx, d.Ops)
}

// Graph returns a copy of the session's current projected graph.
func (s *Session) Graph() *Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Graph().Clone()
}

// Stats snapshots the session.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.eng.Graph()
	st := SessionStats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Components: s.eng.Components(),
		Applies:    s.eng.Applies(),
		LastDirty:  s.eng.LastDirty(),
	}
	if s.log != nil {
		ls := s.log.Stats()
		st.Durable = true
		st.WALRecords, st.WALBytes, st.Snapshots = ls.WALRecords, ls.WALBytes, ls.Snapshots
		st.Replayed, st.RecoveryOutcome = ls.Replayed, ls.Outcome
	}
	return st
}

// Sync forces a durable session's write-ahead log to disk, regardless of
// NoFsync. It is a no-op for an in-memory session. A closed session
// returns ErrSessionClosed.
func (s *Session) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Close ends the session. A durable session writes a final snapshot (so
// the next Resume replays nothing) and releases its file handles. Closing
// twice is safe: the second Close returns nil. After Close, Apply and Sync
// return ErrSessionClosed, while Graph and Stats keep reporting the final
// state.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.log == nil {
		return nil
	}
	return s.log.Close(s.eng)
}
