// Package incremental implements the session engine behind MARIOH's
// incremental reconstruction: a long-lived Engine owns a mutating
// projected graph plus a cache of per-component reconstruction results,
// and recomputes only the components a batch of deltas changed.
//
// The exactness argument is the same one the shard executor rests on:
// every round of the reconstruction decomposes over connected components
// (Phase-2 sampling, the stall fallback and all features are keyed by
// component, see core.ReconstructPiece), so a full run's output is the
// union of its components' outputs, and a component's output depends only
// on its weighted edges, keyed by original node ids.
//
// The Engine caches each component's output under the component's key,
// its smallest node, and proves every entry by its projection. A finished
// run consumes every edge's full multiplicity, so its hypergraph projects
// exactly onto the component it was computed for; a fresh result is cached
// only when it does (a run stopped by MaxRounds does not: it is merged into
// the output but never cached). At the next Apply, a component no op
// touched is still the component its entry was computed for, and a
// touched one keeps its entry only while the entry still projects onto
// its current weighted edges, which are then the edges it was computed
// for. Merging refreshed components with cached ones therefore reproduces
// a from-scratch reconstruction of the mutated graph bit for bit, and a
// batch that is structurally a no-op (deleting an absent edge, re-setting
// a weight to its current value, an insert reverted within the batch)
// stays a cache hit.
//
// The dirty components reconstruct through core.RunPieces, the piece
// runner shards use too. The clique budget (Options.MaxCliqueLimit) is
// per component, so an Apply fails with core.ErrCliqueBudget exactly
// when a from-scratch run of the mutated graph would.
package incremental

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/shard"
)

// Engine is the incremental reconstruction state of one session: the live
// graph (mutated only through Apply), its touched-node tracker, and the
// per-component result cache.
//
// An Engine is not safe for concurrent use; callers (marioh.Session, the
// mariohd session store) serialize access.
type Engine struct {
	tracker *graph.Tracker
	model   *core.Model
	opts    core.Options
	workers int

	// cache maps a component's key (its smallest node) to the component's
	// result, in original node ids. Every entry projects exactly onto the
	// component it was computed for.
	cache map[int]*core.Result

	applies   int
	lastDirty int
	comps     int // live components; < 0 until the next component scan
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
		cache:   map[int]*core.Result{},
		comps:   -1,
	}
}

// Graph returns the engine's live graph. Callers must not mutate it.
func (e *Engine) Graph() *graph.Graph { return e.tracker.Graph() }

// Applies returns the number of Apply calls served so far.
func (e *Engine) Applies() int { return e.applies }

// LastDirty returns the number of components the most recent Apply
// recomputed.
func (e *Engine) LastDirty() int { return e.lastDirty }

// Components returns the number of live (edge-bearing) components of the
// graph.
func (e *Engine) Components() int {
	if e.comps < 0 {
		e.comps = len(e.tracker.Components())
	}
	return e.comps
}

// ErrBadDelta marks a delta batch refused before it changed anything.
var ErrBadDelta = errors.New("incremental: bad delta batch")

// Check reports why Apply would refuse ops, without changing anything: an
// op graph.ReadDeltas would reject (an unknown kind, a self-loop, a
// negative node, an add weight ≤ 0, a set weight < 0, a weight past
// int32), or an add that takes its pair's weight past math.MaxInt32,
// following the pair's weight through the batch from its current value.
// The error wraps ErrBadDelta. Apply and the durable session run Check
// before they count, log or mutate a batch, so a refused batch leaves no
// trace.
func (e *Engine) Check(ops []graph.DeltaOp) error {
	g := e.tracker.Graph()
	weights := make(map[[2]int]int, len(ops))
	for i, op := range ops {
		// ReadDeltas' rule, restated rather than shared: graph's code sits
		// ahead of the MLP kernel in the linked binary, so growing it moves
		// the kernel (see `make layout`). For the same reason ops are
		// formatted through String, not as interface values, which would
		// add a (*DeltaOp).String wrapper to graph's code.
		var bad string
		switch {
		case op.Kind > graph.DeltaSet:
			bad = fmt.Sprintf("unknown kind %d", op.Kind)
		case op.U == op.V || op.U < 0 || op.V < 0:
			bad = "bad edge"
		case op.Kind == graph.DeltaAdd && op.W <= 0:
			bad = "add weight must be > 0"
		case op.Kind == graph.DeltaSet && op.W < 0:
			bad = "set weight must be ≥ 0"
		case op.W > math.MaxInt32:
			bad = "weight overflows int32"
		}
		if bad != "" {
			return fmt.Errorf("%w: op %d (%s): %s", ErrBadDelta, i+1, op.String(), bad)
		}
		pair := [2]int{min(op.U, op.V), max(op.U, op.V)}
		w, ok := weights[pair]
		if !ok && pair[1] < g.NumNodes() {
			w = g.Weight(op.U, op.V)
		}
		switch op.Kind {
		case graph.DeltaAdd:
			w += op.W
		case graph.DeltaRemove:
			w = 0
		case graph.DeltaSet:
			w = op.W
		}
		if w > math.MaxInt32 {
			return fmt.Errorf("%w: op %d (%s): weight of {%d, %d} would reach %d, past int32",
				ErrBadDelta, i+1, op.String(), op.U, op.V, w)
		}
		weights[pair] = w
	}
	return nil
}

// Apply mutates the graph with a batch of delta ops and returns the full
// reconstruction of the mutated graph, recomputing only the components
// whose edge set changed. An empty batch is valid and reconstructs
// whatever is not cached yet — on a fresh Engine, the whole graph.
//
// A batch Check refuses is returned as its error, with a nil result and
// nothing changed: the graph, the apply count and the cache stay as they
// were. On any other error or cancellation the graph mutation has already
// happened and the merged partial result is returned with the first
// error; components that finished stay cached, so a retry resumes where
// the failed Apply stopped.
func (e *Engine) Apply(ctx context.Context, ops []graph.DeltaOp) (*core.Result, error) {
	if err := e.Check(ops); err != nil {
		return nil, err
	}
	// Count the apply before mutating, so an attempt that dies mid-batch
	// is still visible to clients deciding whether a batch landed.
	e.applies++
	e.Mutate(ops)

	g := e.tracker.Graph()
	comps := e.tracker.Components()
	e.comps = len(comps)

	// An untouched component is still the one its entry was computed for;
	// a touched one keeps its entry only while the entry projects onto
	// its current edges. The rest are dirty. Building a fresh map drops a
	// dirty component's entry before its recompute, so a failed or
	// cancelled one leaves nothing stale, and drops every entry whose key
	// no live component carries.
	kept := make(map[int]*core.Result, len(comps))
	var dirty []int // indices into comps with no cached result
	for i, comp := range comps {
		key := comp[0]
		if res, ok := e.cache[key]; ok && (!e.touchedAny(comp) || projectsOnto(res, g, comp)) {
			kept[key] = res
		} else {
			dirty = append(dirty, i)
		}
	}
	e.cache = kept
	e.lastDirty = len(dirty)
	// The touched set is reset only now that the check has consumed it.
	// If Mutate dies mid-batch (a panic in a graph primitive, e.g. a
	// cumulative int32 weight overflow, which Check keeps out of Apply but
	// Mutate does not check for), the partially-applied batch's marks
	// survive into the next Apply, which re-checks the affected components
	// instead of trusting their entries — the byte-equality guarantee
	// holds across failed batches.
	e.tracker.ResetTouched()

	// Reconstruct the dirty components, each on its induced subgraph,
	// through the piece runner. Per-component randomness is keyed by
	// original node ids, so results are independent of worker count and
	// completion order.
	piece := func(di int) shard.Piece {
		sub, back := g.Subgraph(comps[dirty[di]])
		return shard.Piece{Graph: sub, Nodes: back}
	}
	dirtyCount := len(dirty)
	fresh, firstErr := core.RunPieces(ctx, len(dirty), piece, e.model, e.opts, e.workers,
		func(p *core.Progress, _ int) { p.Dirty = dirtyCount })

	// Merge per-component results in ascending component-key order; a
	// component whose reconstruction failed or was cancelled is missing.
	// A fresh result is cached only when it projects onto its component.
	merge := make([]*core.Result, len(comps))
	for i, comp := range comps {
		merge[i] = e.cache[comp[0]]
	}
	for di, res := range fresh {
		if i := dirty[di]; res != nil {
			merge[i] = res
			if projectsOnto(res, g, comps[i]) {
				e.cache[comps[i][0]] = res
			}
		}
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

// projectsOnto reports whether res's hypergraph projects exactly onto the
// weighted edges of comp, a component of g: every hyperedge lies inside
// comp, every pair it covers sums to that edge's weight in g, and the
// pairs cover all of comp's edges.
func projectsOnto(res *core.Result, g *graph.Graph, comp []int) bool {
	degrees := 0
	for _, u := range comp {
		degrees += g.Degree(u)
	}
	proj := make(map[[2]int]int, degrees/2)
	inside := true
	res.Hypergraph.Each(func(nodes []int, mult int) {
		for i, u := range nodes {
			if _, ok := slices.BinarySearch(comp, u); !ok {
				inside = false
				return
			}
			for _, v := range nodes[i+1:] {
				proj[[2]int{u, v}] += mult
			}
		}
	})
	if !inside || 2*len(proj) != degrees {
		return false
	}
	for p, w := range proj {
		if g.Weight(p[0], p[1]) != w {
			return false
		}
	}
	return true
}

// splitmix64 is the SplitMix64 finalizer (shared idiom with core's
// component sampling seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
