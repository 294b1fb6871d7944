package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// uncachedReconstruct is the tests' oracle for the round engine: the
// cache-free round loop, written out test-side — Filter, then one
// BidirectionalSearch without a cache per round, on reconstructGraph's θ
// schedule and stall rule. It returns the reconstruction's bytes and the
// largest number of maximal cliques (graph.MaximalCliques, min size 2)
// that any component of the residual graph holds at the start of any
// round: the smallest clique budget the run passes.
func uncachedReconstruct(t *testing.T, g *graph.Graph, m *Model, opts Options) ([]byte, int) {
	t.Helper()
	opts.defaults()
	work := g.Clone()
	rec := hypergraph.New(g.NumNodes())
	if !opts.DisableFiltering {
		Filter(work, rec)
	}
	theta := opts.ThetaInit
	most := 0
	for round := 0; round < opts.MaxRounds && work.NumEdges() > 0; round++ {
		key := componentKeys(work, nil)
		counts := map[int]int{}
		for _, q := range work.MaximalCliques(2) {
			counts[key[q[0]]]++
			most = max(most, counts[key[q[0]]])
		}
		BidirectionalSearch(work, m, SearchOptions{
			Theta:             theta,
			R:                 opts.R,
			DisableSubcliques: opts.DisableBidirectional,
			Round:             round,
			Seed:              opts.Seed,
			Parallelism:       opts.Parallelism,
			StallDump:         theta == 0 || opts.Alpha == 0,
		}, rec)
		theta = max(theta-opts.Alpha*opts.ThetaInit, 0)
	}
	return renderHG(t, rec), most
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
// entry point — ReconstructContext and ReconstructPiece — returns the
// cache-free oracle's bytes at every parallelism, over eu and every
// corpus family. The run must also show the cache at work: on some input
// the cached engine scores fewer maximal cliques than the oracle, so some
// round reused a component's cliques.
func TestRoundCacheMatchesUncached(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	reused := false
	for _, in := range cacheTestInputs(t) {
		oracleCount := newCountingFeaturizer()
		want, _ := uncachedReconstruct(t, in.g, withFeaturizer(in.m, oracleCount), Options{Seed: 1, Parallelism: 1})
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
		}
		if cachedCount.calls.Load() < oracleCount.calls.Load() {
			reused = true
		}
	}
	if !reused {
		t.Fatal("the cache served no component on any input, so the test does not exercise reuse")
	}
}

// TestRoundCacheBudgetIsExact: one round under a clique budget answers
// the same with the round cache as without it. Ten triangles fill the
// cache in a first round; then component 0 changes (losing its entry, as
// one that accepted something does) to hold 5 maximal cliques, while the
// nine cached components hold one each. Cached components count as within
// the budget and the budget is per component, so a budget of 5 or more
// dumps the same hyperedges and leaves the same residual graph as the
// cache-free round, though the round holds 14 cliques, and a smaller one
// fails both rounds with ErrCliqueBudget, naming the budget and the
// round, and leaves the graph and the reconstruction untouched.
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
	for _, budget := range []int{1, 4, 5, 6, 14, 20} {
		round := func(g *graph.Graph, cache *roundCache, index int, stall bool) ([]byte, error) {
			rec := hypergraph.New(g.NumNodes())
			_, err := search(g, m, SearchOptions{Ctx: ctx, Theta: 2, R: 40, Round: index,
				Seed: 1, Parallelism: 1, StallDump: stall, budget: budget, cache: cache}, rec)
			var buf bytes.Buffer
			if err := g.Write(&buf); err != nil {
				t.Fatal(err)
			}
			return append(renderHG(t, rec), buf.Bytes()...), err
		}
		cached, uncached := base.Clone(), base.Clone()
		cache := new(roundCache)
		if _, err := round(cached, cache, 0, false); err != nil {
			t.Fatalf("budget %d: first round: %v", budget, err)
		}
		if len(cache.comps) != 10 {
			t.Fatalf("budget %d: the first round cached %d components, want all 10", budget, len(cache.comps))
		}
		delete(cache.comps, 0)
		for _, g := range []*graph.Graph{cached, uncached} {
			for s := 30; s < 34; s++ {
				g.AddWeight(0, s, 1)
			}
		}
		var before bytes.Buffer
		if err := cached.Write(&before); err != nil {
			t.Fatal(err)
		}
		untouched := append(renderHG(t, hypergraph.New(34)), before.Bytes()...)
		got, gotErr := round(cached, cache, 1, true)
		want, wantErr := round(uncached, nil, 1, true)
		if !bytes.Equal(got, want) {
			t.Errorf("budget %d: the cached round dumped other components than the cache-free round", budget)
		}
		if budget < 5 {
			msg := fmt.Sprintf("more than %d maximal cliques in round 2", budget)
			for _, err := range []error{gotErr, wantErr} {
				if !errors.Is(err, ErrCliqueBudget) || !strings.Contains(err.Error(), msg) {
					t.Errorf("budget %d: err = %v, want ErrCliqueBudget naming %q", budget, err, msg)
				}
			}
			if !bytes.Equal(got, untouched) {
				t.Errorf("budget %d: the failed round changed the graph or recorded hyperedges", budget)
			}
		} else if gotErr != nil || wantErr != nil {
			t.Errorf("budget %d: cached round: %v, cache-free round: %v, want both to pass", budget, gotErr, wantErr)
		} else if bytes.Equal(got, untouched) {
			t.Errorf("budget %d: the stalled round dumped nothing", budget)
		}
	}
}

// TestParallelCliqueBudgetMatchesOracle pins the clique budget to its
// definition: with M the largest maximal-clique count the oracle sees in
// any component at the start of any round, a budget of M returns the
// oracle's bytes and M−1 fails with ErrCliqueBudget, naming the budget,
// at every parallelism, over eu and every corpus family. Cached rounds
// are in play (TestRoundCacheMatchesUncached shows the cache serving
// these inputs), so a cached component must count as within the budget.
// A budget of 0 means none, so M−1 is skipped where M is 1.
func TestParallelCliqueBudgetMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ctx := context.Background()
	for _, in := range cacheTestInputs(t) {
		want, most := uncachedReconstruct(t, in.g, in.m, Options{Seed: 1, Parallelism: 1})
		t.Logf("%s: M = %d", in.name, most)
		for _, par := range []int{1, 2, 8} {
			res, err := ReconstructContext(ctx, in.g, in.m, Options{Seed: 1, Parallelism: par, MaxCliqueLimit: most})
			if err != nil {
				t.Fatalf("%s: budget %d (M) at Parallelism=%d: %v", in.name, most, par, err)
			}
			if !bytes.Equal(renderHG(t, res.Hypergraph), want) {
				t.Errorf("%s: budget %d (M) at Parallelism=%d diverged from the unlimited oracle", in.name, most, par)
			}
			if most == 1 {
				continue
			}
			_, err = ReconstructContext(ctx, in.g, in.m, Options{Seed: 1, Parallelism: par, MaxCliqueLimit: most - 1})
			if !errors.Is(err, ErrCliqueBudget) || !strings.Contains(err.Error(), fmt.Sprintf("more than %d maximal cliques", most-1)) {
				t.Errorf("%s: budget %d (M−1) at Parallelism=%d: err = %v, want ErrCliqueBudget naming the budget", in.name, most-1, par, err)
			}
		}
	}
}
