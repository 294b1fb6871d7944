package incremental

import (
	"sort"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// CompFP records the fingerprint of one live component, keyed by its
// smallest node (the same key Apply uses).
type CompFP struct {
	Key int
	FP  uint64
}

// CacheEntry is one serializable per-component reconstruction result.
// Entries are content-addressed by FP, so a restored entry can never be
// merged for a component whose edge set diverged.
type CacheEntry struct {
	FP       uint64
	Filtered int
	Rec      *hypergraph.Hypergraph
}

// EngineState is a restorable snapshot of an Engine: the live graph, the
// apply counter, the per-component fingerprints and the cached results.
// Step timings are deliberately not part of the state — they are
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
// accumulate, so the next Apply rehashes every affected component exactly
// as if the ops had arrived through it — the WAL-replay entry point of
// crash recovery.
func (e *Engine) Mutate(ops []graph.DeltaOp) {
	for _, op := range ops {
		e.tracker.Apply(op)
	}
}

// SetApplies overrides the apply counter, so a recovered engine resumes
// the sequence numbering of the session it restores.
func (e *Engine) SetApplies(n int) { e.applies = n }

// Fingerprint hashes the whole live graph — node count plus every edge
// with its weight, in Edges() order — through the same splitmix64 chain
// the per-component fingerprints use. The durability layer records it
// per WAL batch and per snapshot, so recovery can verify a replayed
// graph byte-for-byte matched the one that was acknowledged.
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
// Component fingerprints are re-derived from the live components and
// included only when the recorded fingerprint is still trustworthy (the
// component has no pending touched marks). A component omitted here is
// simply rehashed by the first Apply after Restore, which makes State
// safe to call even mid-batch — e.g. right after a WAL replay, before
// any reconstruction ran.
func (e *Engine) State() *EngineState {
	st := &EngineState{
		Graph:   e.tracker.Graph(),
		Applies: e.applies,
	}
	for _, comp := range e.tracker.Components() {
		key := comp[0]
		if fp, ok := e.fpByKey[key]; ok && !e.touchedAny(comp) {
			st.Comps = append(st.Comps, CompFP{Key: key, FP: fp})
		}
	}
	fps := make([]uint64, 0, len(e.cache))
	for fp := range e.cache {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		res := e.cache[fp]
		st.Entries = append(st.Entries, CacheEntry{FP: fp, Filtered: res.FilteredSize2, Rec: res.Hypergraph})
	}
	return st
}

// Restore rebuilds an Engine from a snapshot state, the inverse of State.
// It takes ownership of st.Graph and every entry's hypergraph. The
// restored engine starts with an empty touched set; components whose
// fingerprint the state did not carry are rehashed on the first Apply.
func Restore(st *EngineState, m *core.Model, opts core.Options, workers int) *Engine {
	e := New(st.Graph, m, opts, workers)
	e.applies = st.Applies
	for _, c := range st.Comps {
		e.fpByKey[c.Key] = c.FP
	}
	for _, en := range st.Entries {
		e.cache[en.FP] = &core.Result{Hypergraph: en.Rec, FilteredSize2: en.Filtered}
	}
	return e
}
