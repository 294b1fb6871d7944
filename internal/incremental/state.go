package incremental

import (
	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// CompFP links one live component, keyed by its smallest node (the key
// Apply caches under), to the id of its cache entry. State writes the key
// itself as the id; snapshots written before the cache was keyed by
// component carry the component's content fingerprint there, and Restore
// joins either kind to its entry.
type CompFP struct {
	Key int
	FP  uint64
}

// CacheEntry is one serializable per-component reconstruction result,
// identified by the id its component's CompFP carries.
type CacheEntry struct {
	FP       uint64
	Filtered int
	Rec      *hypergraph.Hypergraph
}

// EngineState is a restorable snapshot of an Engine: the live graph, the
// apply counter, and the cached results of the components no pending op
// touched, each with the CompFP that links it to its component. Step
// timings are deliberately not part of the state — they are
// observability, not identity, and a restored engine reports zeros for
// work it did not redo.
//
// The Graph and Rec pointers reference the engine's live structures:
// callers must serialize the state before the engine mutates again, and
// Restore takes ownership of everything the state references.
type EngineState struct {
	Graph   *graph.Graph
	Applies int
	Comps   []CompFP     // sorted by Key
	Entries []CacheEntry // sorted by FP
}

// Mutate applies a batch of delta ops to the graph without counting an
// apply or reconstructing anything. The tracker's touched marks
// accumulate, so the next Apply re-checks every affected component exactly
// as if the ops had arrived through it — the WAL-replay entry point of
// crash recovery.
func (e *Engine) Mutate(ops []graph.DeltaOp) {
	e.comps = -1
	for _, op := range ops {
		e.tracker.Apply(op)
	}
}

// SetApplies overrides the apply counter, so a recovered engine resumes
// the sequence numbering of the session it restores.
func (e *Engine) SetApplies(n int) { e.applies = n }

// Fingerprint hashes the whole live graph — node count plus every edge
// with its weight, in Edges() order — through a splitmix64 chain. The
// durability layer records it per WAL batch and per snapshot, so recovery
// can verify a replayed graph byte-for-byte matched the one that was
// acknowledged.
func (e *Engine) Fingerprint() uint64 {
	g := e.tracker.Graph()
	h := splitmix64(uint64(g.NumNodes()))
	for _, edge := range g.Edges() {
		h = splitmix64(h ^ uint64(edge.U))
		h = splitmix64(h ^ uint64(edge.V))
		h = splitmix64(h ^ uint64(edge.W))
	}
	return h
}

// State snapshots the engine into a restorable EngineState.
//
// Only the cached components no pending op touched are written, each
// under its key: their entries are still exact for the graph being
// written. A component omitted here is recomputed by the first Apply
// after Restore, which makes State safe to call even
// mid-batch — e.g. right after a WAL replay, before any reconstruction
// ran.
func (e *Engine) State() *EngineState {
	st := &EngineState{
		Graph:   e.tracker.Graph(),
		Applies: e.applies,
	}
	for _, comp := range e.tracker.Components() {
		key := comp[0]
		res, ok := e.cache[key]
		if !ok || e.touchedAny(comp) {
			continue
		}
		st.Comps = append(st.Comps, CompFP{Key: key, FP: uint64(key)})
		st.Entries = append(st.Entries, CacheEntry{FP: uint64(key), Filtered: res.FilteredSize2, Rec: res.Hypergraph})
	}
	return st
}

// Restore rebuilds an Engine from a snapshot state, the inverse of State.
// It takes ownership of st.Graph and every entry's hypergraph. Each live
// component whose CompFP joins an entry that projects exactly onto it gets
// that entry back; the first Apply recomputes the rest. The projection
// check keeps the cache's invariant for snapshots written before the
// cache was keyed by component, which may hold a result cut short by
// MaxRounds. The restored engine starts with an empty touched set.
func Restore(st *EngineState, m *core.Model, opts core.Options, workers int) *Engine {
	e := New(st.Graph, m, opts, workers)
	e.applies = st.Applies
	ids := make(map[int]uint64, len(st.Comps))
	for _, c := range st.Comps {
		ids[c.Key] = c.FP
	}
	entries := make(map[uint64]CacheEntry, len(st.Entries))
	for _, en := range st.Entries {
		entries[en.FP] = en
	}
	g := e.tracker.Graph()
	comps := e.tracker.Components()
	e.comps = len(comps)
	for _, comp := range comps {
		id, ok := ids[comp[0]]
		en, found := entries[id]
		if !ok || !found {
			continue
		}
		res := &core.Result{Hypergraph: en.Rec, FilteredSize2: en.Filtered}
		if projectsOnto(res, g, comp) {
			e.cache[comp[0]] = res
		}
	}
	return e
}
