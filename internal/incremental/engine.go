// Package incremental implements the session engine behind MARIOH's
// incremental reconstruction: a long-lived Engine owns a mutating
// projected graph plus a cache of per-component reconstruction results,
// and recomputes only the components a batch of deltas touched.
//
// The exactness argument is the same one the shard executor rests on:
// every round of the reconstruction decomposes over connected components
// (Phase-2 sampling, the stall fallback and all features are keyed by
// component, see core.ReconstructPiece), so a full run's output is the
// union of its components' outputs. The Engine caches those per-component
// outputs keyed by a fingerprint of the component's edge set; a delta
// batch invalidates exactly the components whose fingerprint changed, and
// merging refreshed components with cached ones reproduces a from-scratch
// reconstruction of the mutated graph bit for bit. A delta that is
// structurally a no-op (deleting an absent edge, re-setting a weight to
// its current value, an insert immediately reverted within the batch)
// lands back on its old fingerprint and stays a cache hit.
//
// The dirty components reconstruct through core.RunPieces, the piece
// runner shards use too. The clique budget (Options.MaxCliqueLimit) is
// per component, so an Apply fails with core.ErrCliqueBudget exactly
// when a from-scratch run of the mutated graph would.
package incremental

import (
	"context"
	"runtime"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/shard"
)

// Engine is the incremental reconstruction state of one session: the live
// graph (mutated only through Apply), its component tracker, and the
// per-component result cache.
//
// An Engine is not safe for concurrent use; callers (marioh.Session, the
// mariohd session store) serialize access.
type Engine struct {
	tracker *graph.Tracker
	model   *core.Model
	opts    core.Options
	workers int

	cache   map[uint64]*core.Result // fingerprint → the component's result, in original node ids
	fpByKey map[int]uint64          // component key (min node) → fingerprint

	applies   int
	lastDirty int
}

// New builds an Engine over g with a trained model and reconstruction
// options. The Engine takes ownership of g — callers that keep using the
// graph must pass a clone. workers bounds how many dirty components
// reconstruct concurrently per Apply; 0 means GOMAXPROCS. Inside each
// component's rebuild the round engine additionally honors
// opts.Parallelism (see core.Options), which matters when one oversized
// dirty component dominates an Apply. The output is identical for every
// worker count and parallelism setting.
func New(g *graph.Graph, m *core.Model, opts core.Options, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		tracker: graph.NewTracker(g),
		model:   m,
		opts:    opts,
		workers: workers,
		cache:   map[uint64]*core.Result{},
		fpByKey: map[int]uint64{},
	}
}

// Graph returns the engine's live graph. Callers must not mutate it.
func (e *Engine) Graph() *graph.Graph { return e.tracker.Graph() }

// Applies returns the number of Apply calls served so far.
func (e *Engine) Applies() int { return e.applies }

// LastDirty returns the number of components the most recent Apply
// recomputed.
func (e *Engine) LastDirty() int { return e.lastDirty }

// CachedComponents returns the number of per-component results currently
// cached (the live components of the graph after the last Apply).
func (e *Engine) CachedComponents() int { return len(e.cache) }

// Apply mutates the graph with a batch of delta ops and returns the full
// reconstruction of the mutated graph, recomputing only the components
// whose edge set changed. An empty batch is valid and reconstructs
// whatever is not cached yet — on a fresh Engine, the whole graph.
//
// On error or cancellation the graph mutation has already happened and
// the merged partial result is returned with the first error; components
// that finished stay cached, so a retry resumes where the failed Apply
// stopped.
func (e *Engine) Apply(ctx context.Context, ops []graph.DeltaOp) (*core.Result, error) {
	// Count the apply before mutating, so an attempt that dies mid-batch
	// is still visible to clients deciding whether a batch landed.
	e.applies++
	for _, op := range ops {
		e.tracker.Apply(op)
	}

	comps := e.tracker.Components()

	// Resolve every live component to a fingerprint: untouched components
	// keep the one recorded for their key, touched ones are rehashed.
	fps := make([]uint64, len(comps))
	newFpByKey := make(map[int]uint64, len(comps))
	var dirty []int // indices into comps with no cached result
	for i, comp := range comps {
		key := comp[0]
		fp, ok := e.fpByKey[key]
		if !ok || e.touchedAny(comp) {
			fp = e.fingerprint(comp)
		}
		fps[i] = fp
		newFpByKey[key] = fp
		if _, cached := e.cache[fp]; !cached {
			dirty = append(dirty, i)
		}
	}
	e.lastDirty = len(dirty)
	// The touched set is reset only now that it has been fully consumed
	// into the fingerprints. If a batch dies mid-mutation (a panic in a
	// graph primitive, e.g. a cumulative int32 weight overflow), the
	// partially-applied batch's marks survive into the next Apply, which
	// rehashes the affected components instead of trusting stale cache
	// entries — the byte-equality guarantee holds across failed batches.
	e.tracker.ResetTouched()

	// Reconstruct the dirty components, each on its induced subgraph,
	// through the piece runner. Per-component randomness is keyed by
	// original node ids, so results are independent of worker count and
	// completion order.
	g := e.tracker.Graph()
	piece := func(di int) shard.Piece {
		sub, back := g.Subgraph(comps[dirty[di]])
		return shard.Piece{Graph: sub, Nodes: back}
	}
	dirtyCount := len(dirty)
	fresh, firstErr := core.RunPieces(ctx, len(dirty), piece, e.model, e.opts, e.workers,
		func(p *core.Progress, _ int) { p.Dirty = dirtyCount })

	// Install the refreshed components, then drop cache entries no live
	// component references so session memory tracks the graph, not its
	// history.
	for di, res := range fresh {
		if res != nil {
			e.cache[fps[dirty[di]]] = res
		}
	}
	e.fpByKey = newFpByKey
	liveFps := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		liveFps[fp] = true
	}
	for fp := range e.cache {
		if !liveFps[fp] {
			delete(e.cache, fp)
		}
	}

	// Merge per-component results in ascending component-key order; a
	// component whose reconstruction failed or was cancelled is missing.
	merge := make([]*core.Result, len(fps))
	for i, fp := range fps {
		merge[i] = e.cache[fp]
	}
	res := core.MergeResults(g.NumNodes(), merge)
	res.DirtyComponents = len(dirty)
	return res, firstErr
}

// touchedAny reports whether the delta batch touched any node of comp.
func (e *Engine) touchedAny(comp []int) bool {
	for _, u := range comp {
		if e.tracker.TouchedSet(u) {
			return true
		}
	}
	return false
}

// fingerprint hashes a component's identity: its sorted node set and
// every edge with its weight, chained through splitmix64. The cache keys
// on this 64-bit value, so a collision between two distinct edge sets
// would reuse the wrong result — at ~2^-64 per pair that is the usual
// content-hash trade, and the byte-equality CI gate would surface it.
func (e *Engine) fingerprint(comp []int) uint64 {
	g := e.tracker.Graph()
	h := splitmix64(uint64(len(comp)))
	for _, u := range comp {
		h = splitmix64(h ^ uint64(u))
		g.NeighborWeights(u, func(v, w int) {
			if u < v {
				h = splitmix64(h ^ uint64(v))
				h = splitmix64(h ^ uint64(w))
			}
		})
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer (shared idiom with core's
// component sampling seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
