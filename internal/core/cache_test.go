package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// uncachedReconstruct is the tests' oracle for the round engine: the
// cache-free round loop, written out test-side — Filter, then one
// BidirectionalSearch without a cache per round, on reconstructGraph's θ
// schedule and stall rule. It returns the reconstruction's bytes.
func uncachedReconstruct(t *testing.T, g *graph.Graph, m *Model, opts Options) []byte {
	t.Helper()
	opts.defaults()
	work := g.Clone()
	rec := hypergraph.New(g.NumNodes())
	if !opts.DisableFiltering {
		Filter(work, rec)
	}
	theta := opts.ThetaInit
	for round := 0; round < opts.MaxRounds && work.NumEdges() > 0; round++ {
		BidirectionalSearch(work, m, SearchOptions{
			Theta:             theta,
			R:                 opts.R,
			DisableSubcliques: opts.DisableBidirectional,
			MaxCliqueLimit:    opts.MaxCliqueLimit,
			Round:             round,
			Seed:              opts.Seed,
			Parallelism:       opts.Parallelism,
			StallDump:         theta == 0 || opts.Alpha == 0,
		}, rec)
		theta = max(theta-opts.Alpha*opts.ThetaInit, 0)
	}
	return renderHG(t, rec)
}

// cacheInput is one reconstruction input of the round-cache tests.
type cacheInput struct {
	name string
	g    *graph.Graph
	m    *Model
}

// cacheTestInputs is eu under its own model plus every corpus family under
// a 15-epoch hosts model, whose slow θ decay leaves components idle for
// rounds, so the round cache gets to serve them.
func cacheTestInputs(t *testing.T) []cacheInput {
	euModel, eu := pipelineTestSetup(t)
	hosts := datasets.MustByName("hosts", 1).Source.Reduced()
	hostsModel := Train(hosts.Project(), hosts, TrainOptions{Seed: 1, Epochs: 15})
	inputs := []cacheInput{{"eu", eu, euModel}}
	for _, f := range corpus.Families {
		inputs = append(inputs, cacheInput{f.Name, f.Gen(1), hostsModel})
	}
	return inputs
}

// TestRoundCacheMatchesUncached: the cached round engine behind every
// entry point — ReconstructContext, ReconstructPiece and
// ReconstructSharded — returns the cache-free oracle's bytes at every
// parallelism, over eu and every corpus family, and so does
// ReconstructContext under a MaxCliqueLimit, whose budget the cache must
// apply exactly. The run must also show the cache at work: on some input
// the cached engine scores fewer maximal cliques than the oracle, so some
// round reused a component's cliques.
func TestRoundCacheMatchesUncached(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	reused := false
	for _, in := range cacheTestInputs(t) {
		oracleCount := newCountingFeaturizer()
		want := uncachedReconstruct(t, in.g, withFeaturizer(in.m, oracleCount), Options{Seed: 1, Parallelism: 1})
		cachedCount := newCountingFeaturizer()
		for _, par := range []int{1, 2, 8} {
			opts := Options{Seed: 1, Parallelism: par}
			m := in.m
			if par == 1 {
				m = withFeaturizer(in.m, cachedCount)
			}
			res, err := ReconstructContext(ctx, in.g, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, res.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d: ReconstructContext diverged from the oracle", in.name, par)
			}
			piece, err := ReconstructPiece(ctx, in.g, in.m, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, piece.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d: ReconstructPiece diverged from the oracle", in.name, par)
			}
			sharded, err := ReconstructSharded(ctx, in.g, in.m, opts, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, sharded.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d: ReconstructSharded diverged from the oracle", in.name, par)
			}
		}
		if cachedCount.calls.Load() < oracleCount.calls.Load() {
			reused = true
		}
		for _, limit := range []int{3, 20, 100, 400} {
			for _, par := range []int{1, 2} {
				opts := Options{Seed: 1, MaxCliqueLimit: limit, Parallelism: par}
				res, err := ReconstructContext(ctx, in.g, in.m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderHG(t, res.Hypergraph), uncachedReconstruct(t, in.g, in.m, opts)) {
					t.Errorf("%s: MaxCliqueLimit=%d Parallelism=%d: ReconstructContext diverged from the oracle", in.name, limit, par)
				}
			}
		}
	}
	if !reused {
		t.Fatal("the cache served no component on any input, so the test does not exercise reuse")
	}
}

// TestRoundCacheBudgetIsExact pins the clique budget of a cached round
// against the cache-free round, where a cut shows in the output: at θ = 2
// nothing is accepted and the stall dump consumes exactly the components
// the round enumerated. Ten triangles are cached by a first round; then
// four pendant edges change the first triangle, dropping its entry, to
// five cliques, fourteen in all. Limits 11–14 cut the cache-free stream
// (its last cliques are triangles), so the cached round must notice that
// the dirty cliques use up what the cached ones leave of the budget and
// redo the round cold; limits above 14 keep everything.
func TestRoundCacheBudgetIsExact(t *testing.T) {
	h := bridgeChain(3)
	m := Train(h.Project(), h, TrainOptions{Seed: 1, Epochs: 2})
	base := graph.New(34)
	for i := 0; i < 10; i++ {
		a := 3 * i
		base.AddWeight(a, a+1, 1)
		base.AddWeight(a, a+2, 1)
		base.AddWeight(a+1, a+2, 1)
	}
	ctx := context.Background()
	for _, limit := range []int{11, 12, 13, 14, 15, 20} {
		round := func(g *graph.Graph, cache *roundCache, stall bool) []byte {
			rec := hypergraph.New(g.NumNodes())
			BidirectionalSearch(g, m, SearchOptions{Ctx: ctx, Theta: 2, R: 40, MaxCliqueLimit: limit,
				Seed: 1, Parallelism: 1, StallDump: stall, cache: cache}, rec)
			var buf bytes.Buffer
			if err := g.Write(&buf); err != nil {
				t.Fatal(err)
			}
			return append(renderHG(t, rec), buf.Bytes()...)
		}
		cached, uncached := base.Clone(), base.Clone()
		cache := new(roundCache)
		round(cached, cache, false)
		if len(cache.comps) != 10 {
			t.Fatalf("limit %d: the first round cached %d components, want all 10", limit, len(cache.comps))
		}
		// A changed component loses its cache entry, as one that accepted
		// something does.
		delete(cache.comps, 0)
		for _, g := range []*graph.Graph{cached, uncached} {
			for s := 30; s < 34; s++ {
				g.AddWeight(0, s, 1)
			}
		}
		if got, want := round(cached, cache, true), round(uncached, nil, true); !bytes.Equal(got, want) {
			t.Errorf("limit %d: the cached round dumped other components than the cache-free round", limit)
		}
	}
}
