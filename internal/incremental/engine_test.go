package incremental

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/graph"
)

// multiComponentTarget builds a target graph with many components from
// several dataset analogs, plus a model trained the usual way.
func multiComponentTarget(t *testing.T) (*graph.Graph, *core.Model) {
	t.Helper()
	src := datasets.MustByName("crime", 1).Source.Reduced()
	m := core.Train(src.Project(), src, core.TrainOptions{Seed: 1, Epochs: 15})
	n := 0
	var parts []*graph.Graph
	for _, name := range []string{"crime", "hosts", "pschool"} {
		parts = append(parts, datasets.MustByName(name, 1).Target.Reduced().Project())
	}
	for _, p := range parts {
		n += p.NumNodes()
	}
	g := graph.New(n)
	off := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			g.AddWeight(off+e.U, off+e.V, e.W)
		}
		off += p.NumNodes()
	}
	return g, m
}

// renderHG serializes a hypergraph in its canonical text form.
func render(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Hypergraph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyToShadow applies a delta op to a plain graph the way the Tracker
// does, giving the tests an independent "mutated graph" to rebuild from
// scratch.
func applyToShadow(g *graph.Graph, op graph.DeltaOp) {
	top := op.U
	if op.V > top {
		top = op.V
	}
	g.EnsureNodes(top + 1)
	switch op.Kind {
	case graph.DeltaAdd:
		g.AddWeight(op.U, op.V, op.W)
	case graph.DeltaRemove:
		g.RemoveEdge(op.U, op.V)
	case graph.DeltaSet:
		g.SetWeight(op.U, op.V, op.W)
	}
}

// randomBatch derives a reproducible delta batch against the current
// state of g: weight bumps and deletes on existing edges plus a few new
// inserts, confined to node ids below bound so components outside that
// range stay untouched.
func randomBatch(rng *rand.Rand, g *graph.Graph, size, bound int) []graph.DeltaOp {
	var edges []graph.Edge
	for _, e := range g.Edges() {
		if e.V < bound {
			edges = append(edges, e)
		}
	}
	var ops []graph.DeltaOp
	for i := 0; i < size; i++ {
		switch {
		case len(edges) > 0 && rng.Intn(3) != 0:
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 1})
			} else {
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaRemove, U: e.U, V: e.V})
			}
		default:
			u, v := rng.Intn(bound), rng.Intn(bound)
			if u == v {
				continue
			}
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: 1 + rng.Intn(3)})
		}
	}
	return ops
}

// TestEngineMatchesFullRebuildUnderDeltas is the core acceptance
// property: after every delta batch, the engine's merged output must be
// byte-identical to a from-scratch reconstruction of the mutated graph.
func TestEngineMatchesFullRebuildUnderDeltas(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 3}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	rng := rand.New(rand.NewSource(42))

	batches := [][]graph.DeltaOp{nil} // first Apply: full build
	for i := 0; i < 4; i++ {
		batches = append(batches, nil) // placeholder, generated against live state
	}

	// Deltas stay within the first dataset block's id range, so the other
	// blocks' components must remain cached across every batch.
	bound := datasets.MustByName("crime", 1).Target.Reduced().Project().NumNodes()
	for bi := range batches {
		ops := batches[bi]
		if bi > 0 {
			ops = randomBatch(rng, shadow, 12, bound)
		}
		for _, op := range ops {
			applyToShadow(shadow, op)
		}
		got, err := eng.Apply(context.Background(), ops)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(t, got), render(t, want)) {
			t.Fatalf("batch %d: session output diverges from full rebuild (%d vs %d unique)",
				bi, got.Hypergraph.NumUnique(), want.Hypergraph.NumUnique())
		}
		if got.FilteredSize2 != want.FilteredSize2 {
			t.Fatalf("batch %d: FilteredSize2 %d != full rebuild %d", bi, got.FilteredSize2, want.FilteredSize2)
		}
		if bi == 0 {
			if got.DirtyComponents == 0 || got.DirtyComponents != eng.Components() {
				t.Fatalf("initial build: dirty %d, live %d", got.DirtyComponents, eng.Components())
			}
		} else if got.DirtyComponents >= eng.Components() {
			t.Fatalf("batch %d: %d of %d components dirty — localized deltas should leave most cached",
				bi, got.DirtyComponents, eng.Components())
		}
	}
}

// TestEngineNoopAndRevertedBatchesStayCached: batches that do not change
// any component's edge set (structural no-ops, or mutations reverted
// within the same batch) must recompute nothing.
func TestEngineNoopAndRevertedBatchesStayCached(t *testing.T) {
	g, m := multiComponentTarget(t)
	eng := New(g, m, core.Options{Seed: 1}, 0)
	full, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := render(t, full)

	e := eng.Graph().Edges()[0]
	for name, ops := range map[string][]graph.DeltaOp{
		"empty":           nil,
		"remove-absent":   {{Kind: graph.DeltaRemove, U: 0, V: eng.Graph().NumNodes() - 1}},
		"set-same-weight": {{Kind: graph.DeltaSet, U: e.U, V: e.V, W: e.W}},
		"add-then-revert": {
			{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 2},
			{Kind: graph.DeltaSet, U: e.U, V: e.V, W: e.W},
		},
	} {
		res, err := eng.Apply(context.Background(), ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.DirtyComponents != 0 {
			t.Errorf("%s: recomputed %d components, want 0", name, res.DirtyComponents)
		}
		if !bytes.Equal(render(t, res), base) {
			t.Errorf("%s: output changed", name)
		}
	}
	// Sanity: remove-absent against a node pair inside one component that
	// IS an edge must dirty exactly that component.
	res, err := eng.Apply(context.Background(), []graph.DeltaOp{{Kind: graph.DeltaRemove, U: e.U, V: e.V}})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents == 0 {
		t.Fatal("real delete recomputed nothing")
	}
	if eng.Applies() != 6 || eng.LastDirty() != res.DirtyComponents {
		t.Fatalf("counters: applies %d lastDirty %d (want 6, %d)",
			eng.Applies(), eng.LastDirty(), res.DirtyComponents)
	}
}

// TestEngineMergeAndSplit: inserting an inter-component edge must dirty
// only the merged component; deleting it must dirty both sides — and both
// states must match full rebuilds.
func TestEngineMergeAndSplit(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 9}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	total := eng.Components()
	if total < 3 {
		t.Fatalf("fixture should have ≥ 3 components, got %d", total)
	}

	// Bridge the components containing the globally smallest and largest
	// edge endpoints (guaranteed distinct blocks of the disjoint union).
	edges := shadow.Edges()
	u, v := edges[0].U, edges[len(edges)-1].V
	bridge := graph.DeltaOp{Kind: graph.DeltaAdd, U: u, V: v, W: 1}
	applyToShadow(shadow, bridge)
	res, err := eng.Apply(context.Background(), []graph.DeltaOp{bridge})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents != 1 {
		t.Fatalf("merge dirtied %d components, want 1", res.DirtyComponents)
	}
	if eng.Components() != total-1 {
		t.Fatalf("after merge: %d live components, want %d", eng.Components(), total-1)
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("merged-component output diverges from full rebuild")
	}

	// Cut the bridge again: the component splits back into the two
	// pre-merge components, but their entries were dropped at the merge
	// (their keys stopped being live), so both sides recompute.
	cut := graph.DeltaOp{Kind: graph.DeltaRemove, U: u, V: v}
	applyToShadow(shadow, cut)
	res, err = eng.Apply(context.Background(), []graph.DeltaOp{cut})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents != 2 {
		t.Fatalf("split dirtied %d components, want 2", res.DirtyComponents)
	}
	if eng.Components() != total {
		t.Fatalf("after split: %d live components, want %d", eng.Components(), total)
	}
	want, err = core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("post-split output diverges from full rebuild")
	}
}

// TestEngineProgressCarriesDirtyCount: every progress event of an Apply
// reports how many components that Apply is recomputing.
func TestEngineProgressCarriesDirtyCount(t *testing.T) {
	g, m := multiComponentTarget(t)
	var dirtySeen []int
	opts := core.Options{Seed: 1, Progress: func(p core.Progress) {
		dirtySeen = append(dirtySeen, p.Dirty)
	}}
	eng := New(g, m, opts, 0)
	res, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirtySeen) == 0 {
		t.Fatal("no progress events")
	}
	for _, d := range dirtySeen {
		if d != res.DirtyComponents {
			t.Fatalf("event carried Dirty %d, want %d", d, res.DirtyComponents)
		}
	}
}

// TestEnginePanicMidBatchKeepsEquivalence: a batch that dies in a graph
// primitive after mutating earlier ops (here: a cumulative int32 weight
// overflow, which every op passes wire validation for) must not poison
// the cache — the next Apply re-derives the touched components and still
// matches a from-scratch rebuild of the partially-mutated graph. Apply
// refuses such a batch up front (TestEngineRefusesBadBatch), so the batch
// goes through Mutate, the unchecked WAL-replay entry point.
func TestEnginePanicMidBatchKeepsEquivalence(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 4}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}

	edges := shadow.Edges()
	eA := edges[0]            // component in the first block
	eB := edges[len(edges)-1] // component in the last block
	const maxW = math.MaxInt32/2 + 1
	batch := []graph.DeltaOp{
		{Kind: graph.DeltaAdd, U: eA.U, V: eA.V, W: 1},    // lands
		{Kind: graph.DeltaSet, U: eB.U, V: eB.V, W: maxW}, // lands
		{Kind: graph.DeltaAdd, U: eB.U, V: eB.V, W: maxW}, // cumulative overflow → panic
	}
	applyToShadow(shadow, batch[0])
	applyToShadow(shadow, batch[1])

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the overflow panic")
			}
		}()
		eng.Mutate(batch)
	}()

	res, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("post-panic Apply diverges from full rebuild of the partially-mutated graph")
	}
	if res.DirtyComponents == 0 {
		t.Fatal("post-panic Apply trusted stale cache entries for the mutated components")
	}
}

// TestEngineRefusesBadBatch: a batch with an op the delta reader would
// reject, or whose adds take a pair past int32 counting from the graph's
// current weight, is refused whole with ErrBadDelta — the graph's bytes
// and the apply count do not move — while a batch whose set brings the
// running weight back under the bound is accepted, and the next Apply
// still matches a from-scratch rebuild.
func TestEngineRefusesBadBatch(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 6}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	graphBytes := func() []byte {
		var buf bytes.Buffer
		if err := eng.Graph().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := graphBytes()

	e := shadow.Edges()[0]
	w0 := shadow.Weight(e.U, e.V)
	half := math.MaxInt32/2 + 1
	n := shadow.NumNodes()
	for _, tc := range []struct {
		name  string
		batch []graph.DeltaOp
	}{
		{"adds past int32", []graph.DeltaOp{
			{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 1},
			{Kind: graph.DeltaAdd, U: e.V, V: e.U, W: half},
			{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: half},
		}},
		{"set then add past int32", []graph.DeltaOp{
			{Kind: graph.DeltaSet, U: e.U, V: e.V, W: math.MaxInt32},
			{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 1},
		}},
		{"current weight plus add past int32", []graph.DeltaOp{
			{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: math.MaxInt32 - w0 + 1},
		}},
		{"new pair past int32", []graph.DeltaOp{
			{Kind: graph.DeltaAdd, U: n, V: n + 1, W: half},
			{Kind: graph.DeltaAdd, U: n + 1, V: n, W: half},
		}},
		{"self-loop", []graph.DeltaOp{{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 1}, {Kind: graph.DeltaAdd, U: 2, V: 2, W: 1}}},
		{"negative node", []graph.DeltaOp{{Kind: graph.DeltaRemove, U: -1, V: 3}}},
		{"zero add", []graph.DeltaOp{{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 0}}},
		{"negative set", []graph.DeltaOp{{Kind: graph.DeltaSet, U: e.U, V: e.V, W: -1}}},
		{"weight overflow", []graph.DeltaOp{{Kind: graph.DeltaSet, U: e.U, V: e.V, W: math.MaxInt32 + 1}}},
		{"unknown kind", []graph.DeltaOp{{Kind: graph.DeltaSet + 1, U: e.U, V: e.V, W: 1}}},
	} {
		if _, err := eng.Apply(context.Background(), tc.batch); !errors.Is(err, ErrBadDelta) {
			t.Fatalf("%s: Apply = %v, want ErrBadDelta", tc.name, err)
		}
		if !bytes.Equal(graphBytes(), before) || eng.Applies() != 1 {
			t.Fatalf("%s: refused batch changed the engine (applies %d)", tc.name, eng.Applies())
		}
	}

	ok := []graph.DeltaOp{
		{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: half},
		{Kind: graph.DeltaSet, U: e.U, V: e.V, W: 2},
		{Kind: graph.DeltaAdd, U: e.V, V: e.U, W: half},
		{Kind: graph.DeltaRemove, U: e.U, V: e.V},
		{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: math.MaxInt32},
		{Kind: graph.DeltaSet, U: e.U, V: e.V, W: w0 + 1},
	}
	for _, op := range ok {
		applyToShadow(shadow, op)
	}
	res, err := eng.Apply(context.Background(), ok)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) || eng.Applies() != 2 {
		t.Fatalf("Apply after refused batches diverges from full rebuild (applies %d)", eng.Applies())
	}
}

// TestEngineCancelledApplyIsRetryable: a cancelled Apply returns the
// context error; a retry completes and still matches the full rebuild.
func TestEngineCancelledApplyIsRetryable(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 2}
	shadow := g.Clone()
	eng := New(g, m, opts, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Apply(ctx, nil); err == nil {
		t.Fatal("cancelled Apply returned nil error")
	}
	res, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("retried Apply diverges from full rebuild")
	}
}

// TestEngineTouchedEntryMustProject: an entry planted under another
// component's key is never merged once an op touches that component. A
// no-op touch (a DeltaSet to the current weight) leaves the edges as they
// were, so only the projection check can reject the entry; Apply must
// recompute the component and match a from-scratch rebuild.
func TestEngineTouchedEntryMustProject(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 5}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	comps := eng.tracker.Components()
	a, b := comps[0], comps[len(comps)-1]
	eng.cache[a[0]] = eng.cache[b[0]]

	u := a[0]
	v := eng.Graph().Neighbors(u)[0]
	touch := graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: eng.Graph().Weight(u, v)}
	res, err := eng.Apply(context.Background(), []graph.DeltaOp{touch})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents != 1 {
		t.Fatalf("no-op touch recomputed %d components, want 1 (the planted one)", res.DirtyComponents)
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("Apply merged the planted entry instead of rebuilding its component")
	}
}

// TestEngineTruncatedResultIsNeverCached: a component whose run stops at
// MaxRounds with edges left does not project onto its component, so its
// result is merged but not cached: the next empty Apply recomputes exactly
// those components and returns the same bytes, which equal a from-scratch
// run under the same MaxRounds.
func TestEngineTruncatedResultIsNeverCached(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 6, MaxRounds: 1}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	first, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live := len(eng.tracker.Components())
	truncated := live - len(eng.cache)
	if truncated == 0 {
		t.Fatal("fixture: every component finished within one round")
	}
	if eng.Components() != live {
		t.Fatalf("Components() = %d, want the %d live components", eng.Components(), live)
	}
	second, err := eng.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.DirtyComponents != truncated {
		t.Fatalf("second Apply recomputed %d components, want the %d truncated ones", second.DirtyComponents, truncated)
	}
	if !bytes.Equal(render(t, second), render(t, first)) {
		t.Fatal("recomputing the truncated components changed the output")
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, second), render(t, want)) {
		t.Fatal("session output diverges from a from-scratch run under the same MaxRounds")
	}
}
