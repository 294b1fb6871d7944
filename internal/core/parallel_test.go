package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/datasets"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// forceFanout makes the enumerate-and-score loop start its helpers at the
// first known clique, so tiny rounds exercise the fan-out, until the test
// ends.
func forceFanout(t testing.TB) {
	fanoutAt = 1
	t.Cleanup(func() { fanoutAt = fanoutCliques })
}

// countingFeaturizer is features.Marioh that counts the cliques it
// scores through Compute — every maximal clique the loop scores — and
// records the worker scratches that scored them: each loop worker owns
// one scorer, so distinct scratches are distinct workers. Phase 2's
// sub-cliques go through Marioh's own sub-clique path and are not
// counted.
type countingFeaturizer struct {
	features.Marioh
	calls *atomic.Int64
	mu    *sync.Mutex
	seen  map[*features.Scratch]bool
}

func newCountingFeaturizer() countingFeaturizer {
	return countingFeaturizer{calls: new(atomic.Int64), mu: new(sync.Mutex), seen: map[*features.Scratch]bool{}}
}

func (f countingFeaturizer) AppendFeatures(dst []float64, s *features.Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	f.calls.Add(1)
	f.mu.Lock()
	f.seen[s] = true
	f.mu.Unlock()
	return f.Marioh.AppendFeatures(dst, s, g, q, maximal)
}

// withFeaturizer returns a copy of m that extracts features through f.
func withFeaturizer(m *Model, f features.Featurizer) *Model {
	c := *m
	c.Feat = f
	return &c
}

// TestScoreFanoutHonorsParallelism is the regression test for the bug
// where round scoring fanned out to GOMAXPROCS whatever the configured
// parallelism: one worker must mean one worker, however many cliques a
// round scores and wherever the fan-out point sits.
func TestScoreFanoutHonorsParallelism(t *testing.T) {
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := resolveWorkers(3); got != 3 {
		t.Errorf("resolveWorkers(3) = %d, want 3", got)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, g := pipelineTestSetup(t)
	f := newCountingFeaturizer()
	scored, _ := enumerateScored(context.Background(), g, withFeaturizer(m, f), liveNodes(g), nil, 0, 1, nil)
	if len(scored) < fanoutCliques {
		t.Fatalf("only %d cliques; the round must exceed the default fan-out point", len(scored))
	}
	if len(f.seen) != 1 {
		t.Fatalf("Parallelism 1 scored on %d workers, want 1", len(f.seen))
	}
}

// liveNodes returns g's nodes that have an edge, ascending: the nodes a
// round with nothing cached runs the seeds of.
func liveNodes(g *graph.Graph) []int {
	var nodes []int
	for v, k := range componentKeys(g, nil) {
		if k >= 0 {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// pipelineTestSetup trains a small model over the eu dataset's projected
// graph, the same substrate the other core tests score against.
func pipelineTestSetup(t testing.TB) (*Model, *graph.Graph) {
	t.Helper()
	ds := datasets.MustByName("eu", 1)
	src := ds.Source.Reduced()
	g := src.Project()
	m := Train(g, src, TrainOptions{Seed: 1, Epochs: 10})
	return m, g
}

// randomTestGraph builds a seeded G(n, p)-style graph with a planted
// overlapping clique over every fourth node, the shapes that exercise
// both the per-seed fan-out and the bitset rows.
func randomTestGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddWeight(u, v, 1+rng.Intn(3))
			}
		}
	}
	for u := 0; u < n; u += 4 {
		for v := u + 4; v < n && v < u+20; v += 4 {
			if !g.HasEdge(u, v) {
				g.AddWeight(u, v, 1)
			}
		}
	}
	return g
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// TestPipelineEnumerateScoredMatchesSerial: with the fan-out forced at the
// first clique, the loop's output at every worker count is the serial
// stream — the seeds of the live nodes run one by one in ascending order
// — in order, with scores that bit-match serial scoring, also under a
// budget equal to the largest component's clique count, while one clique
// less fails the round (archipelago has many components, so the count
// must be per component). The stream holds exactly the EachMaximalClique
// set. (Seeds of whole components on a graph that lost edges since its
// ranks were taken are pinned by graph's
// TestCliqueSeederComponentSeedsAfterEdgeRemoval, and whole runs by
// TestRoundCacheMatchesUncached.)
func TestPipelineEnumerateScoredMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{
		{"sparse", randomTestGraph(60, 0.05, 1)},
		{"medium", randomTestGraph(48, 0.2, 2)},
		{"dense", randomTestGraph(28, 0.5, 3)},
		{"empty", graph.New(10)},
		{"singleton", graph.New(1)},
		{"archipelago", corpus.MustByName("archipelago").Gen(1)},
		{"eu", eu},
	}
	for _, tc := range graphs {
		nodes := liveNodes(tc.g)
		seeds := tc.g.CliqueSeeds(2)
		var enum graph.CliqueEnum
		var stream [][]int
		for _, u := range nodes {
			seeds.EnumSeed(u, &enum, func(c []int) bool {
				stream = append(stream, slices.Clone(c))
				return true
			})
		}
		set := slices.Clone(stream)
		slices.SortFunc(set, cmpNodes)
		if all := tc.g.MaximalCliques(2); !slices.EqualFunc(set, all, slices.Equal) {
			t.Fatalf("%s: the seeds of the live nodes emitted %d cliques, want the %d of EachMaximalClique", tc.name, len(set), len(all))
		}
		var sc scorer
		scores := make([]float64, len(stream))
		for i, q := range stream {
			scores[i] = m.scoreScratch(tc.g, q, true, &sc)
		}
		key := componentKeys(tc.g, nil)
		counts, most := map[int]int{}, 0
		for _, q := range stream {
			counts[key[q[0]]]++
			most = max(most, counts[key[q[0]]])
		}
		for _, budget := range []int{0, most, most - 1} {
			wantOver := budget > 0 && budget < most
			for _, workers := range []int{1, 2, 3, 8, 64} {
				got, over := enumerateScored(context.Background(), tc.g, m, nodes, key, budget, workers, nil)
				if over != wantOver {
					t.Fatalf("%s: budget=%d workers=%d: over=%v, want %v (largest component: %d cliques)", tc.name, budget, workers, over, wantOver, most)
				}
				if over {
					continue
				}
				if len(got) != len(stream) {
					t.Fatalf("%s: budget=%d workers=%d: %d cliques, want %d", tc.name, budget, workers, len(got), len(stream))
				}
				for i := range got {
					if !slices.Equal(got[i].nodes, stream[i]) || got[i].score != scores[i] {
						t.Fatalf("%s: budget=%d workers=%d: clique %d diverged from the serial stream", tc.name, budget, workers, i)
					}
				}
			}
		}
	}
}

// moonMoser is the Moon–Moser graph on 3k nodes: k independent triples,
// every pair of nodes from different triples joined with weight 1. It is
// one component with 3^k maximal cliques, one node from each triple.
func moonMoser(k int) *graph.Graph {
	g := graph.New(3 * k)
	for u := 0; u < 3*k; u++ {
		for v := u + 1; v < 3*k; v++ {
			if u/3 != v/3 {
				g.AddWeight(u, v, 1)
			}
		}
	}
	return g
}

// TestPipelineLimitBoundsEnumeration: on a graph of one component with
// more maximal cliques than the budget, the loop fails the round having
// scored at most (workers+1)·(budget+1) cliques, however many productive
// seeds the graph has and however many cliques one seed holds. The
// Moon–Moser graph on 36 nodes has 3^12 = 531,441 maximal cliques, 3^11
// of them under its first seed; powerlaw-hubs' largest component and the
// dense random graph hold many seeds of a few cliques each.
func TestPipelineLimitBoundsEnumeration(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, _ := pipelineTestSetup(t)
	largest := func(g *graph.Graph) *graph.Graph {
		var big []int
		for _, c := range g.ConnectedComponents() {
			if len(c) > len(big) {
				big = c
			}
		}
		sub, _ := g.Subgraph(big)
		return sub
	}
	mm := moonMoser(12)
	if n := Filter(mm.Clone(), hypergraph.New(36)); n != 0 {
		t.Fatalf("filtering consumed %d occurrences of the Moon–Moser graph, want none", n)
	}
	fam := corpus.MustByName("powerlaw-hubs")
	for _, tc := range []namedGraph{
		{"moon-moser-36", mm},
		{fam.Name, largest(fam.Gen(1))},
		{"dense", largest(randomTestGraph(28, 0.5, 3))},
	} {
		if n := len(tc.g.MaximalCliquesLimit(2, 11)); n <= 10 {
			t.Fatalf("%s: only %d maximal cliques, want more than every budget", tc.name, n)
		}
		key := componentKeys(tc.g, nil)
		for _, budget := range []int{1, 3, 10} {
			for _, workers := range []int{1, 2, 3, 8} {
				f := newCountingFeaturizer()
				got, over := enumerateScored(context.Background(), tc.g, withFeaturizer(m, f), liveNodes(tc.g), key, budget, workers, nil)
				if !over || got != nil {
					t.Fatalf("%s: budget=%d workers=%d: over=%v with %d cliques, want the round failed", tc.name, budget, workers, over, len(got))
				}
				if n, bound := f.calls.Load(), int64((workers+1)*(budget+1)); n > bound {
					t.Errorf("%s: budget=%d workers=%d: scored %d cliques, want at most %d", tc.name, budget, workers, n, bound)
				}
			}
		}
	}
}

// TestRoundCancelledBeforeScoring: a cancelled request stops the
// enumerate-and-score loop at its next seed claim. With ctx cancelled up
// front, the loop scores no clique and the round accepts nothing and
// leaves the graph untouched.
func TestRoundCancelledBeforeScoring(t *testing.T) {
	m, g := pipelineTestSetup(t)
	f := newCountingFeaturizer()
	cm := withFeaturizer(m, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if scored, _ := enumerateScored(ctx, g, cm, liveNodes(g), nil, 0, 2, nil); len(scored) != 0 || f.calls.Load() != 0 {
		t.Fatalf("cancelled loop returned %d cliques after %d scoring calls, want none", len(scored), f.calls.Load())
	}
	var before, after bytes.Buffer
	if err := g.Write(&before); err != nil {
		t.Fatal(err)
	}
	rec := hypergraph.New(g.NumNodes())
	if got := BidirectionalSearch(g, cm, SearchOptions{Ctx: ctx, Theta: 0.5, R: 40, Seed: 1, StallDump: true}, rec); got != 0 {
		t.Fatalf("cancelled round accepted %d hyperedges, want 0", got)
	}
	if err := g.Write(&after); err != nil {
		t.Fatal(err)
	}
	if f.calls.Load() != 0 || rec.NumTotal() != 0 || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("cancelled round scored %d cliques, recorded %d hyperedges or changed the graph", f.calls.Load(), rec.NumTotal())
	}
}

// cancellingFeaturizer is features.Marioh that counts the cliques it
// scores and cancels its context inside the at-th call.
type cancellingFeaturizer struct {
	features.Marioh
	calls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (f cancellingFeaturizer) AppendFeatures(dst []float64, s *features.Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	if f.calls.Add(1) == f.at {
		f.cancel()
	}
	return f.Marioh.AppendFeatures(dst, s, g, q, maximal)
}

// TestPipelineCancelStopsSeed: a cancel inside a seed's Bron–Kerbosch
// subtree stops the seed within one poll interval, so each worker scores
// at most cancelPollCliques cliques after it. The 36-node Moon–Moser
// graph has 3^12 maximal cliques, and the cancel lands in the 20,000th
// scoring call. In rank order the first seed holds 3^11 of them and the
// loop's helpers never start; in reverse rank order the first seeds are
// small, so the helpers start, and every worker is inside a growing
// subtree when the cancel lands. Without the poll each case scores
// hundreds to 157,147 more cliques. The test counts cliques, not wall
// time.
func TestPipelineCancelStopsSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, _ := pipelineTestSetup(t)
	mm := moonMoser(12)
	rank, _ := mm.DegeneracyOrdering()
	reversed := slices.Clone(rank)
	slices.Reverse(reversed)
	const at = 20000
	for _, order := range []struct {
		name  string
		nodes []int
	}{{"rank", rank}, {"reverse rank", reversed}} {
		for _, workers := range []int{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			f := cancellingFeaturizer{calls: new(atomic.Int64), at: at, cancel: cancel}
			enumerateScored(ctx, mm, withFeaturizer(m, f), order.nodes, nil, 0, workers, nil)
			cancel()
			after, bound := f.calls.Load()-at, int64(workers*cancelPollCliques)
			if after < 0 {
				t.Fatalf("%s order, workers=%d: scored %d cliques, want the cancel at the %dth", order.name, workers, f.calls.Load(), at)
			}
			if after > bound {
				t.Errorf("%s order, workers=%d: scored %d cliques after the cancel, want at most %d", order.name, workers, after, bound)
			}
			t.Logf("%s order, workers=%d: %d cliques scored after the cancel", order.name, workers, after)
		}
	}
}

// TestParallelRoundEngineMatchesSerial drives full reconstructions — the
// serial pipeline and the piece engine — of eu
// and every corpus family at several parallelism settings, with the
// fan-out forced at the first clique so the helpers and the per-component
// search engage on every round however small, and requires the bytes of
// the cache-free oracle (uncachedReconstruct) at parallelism 1
// throughout. (The corpus package pins the serial bytes to its goldens
// and repeats the sweep at the default fan-out point.)
func TestParallelRoundEngineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{{"eu", eu}}
	for _, f := range corpus.Families {
		graphs = append(graphs, namedGraph{f.Name, f.Gen(1)})
	}
	forceFanout(t)
	for _, tc := range graphs {
		name, g := tc.name, tc.g
		want, _ := uncachedReconstruct(t, g, m, Options{Seed: 1, Parallelism: 1})
		for _, par := range []int{0, 1, 2, 8} {
			opts := Options{Seed: 1, Parallelism: par}
			res, err := ReconstructContext(context.Background(), g, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, res.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d serial pipeline diverged", name, par)
			}
			piece, err := ReconstructPiece(context.Background(), g.Clone(), m, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, piece.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d cached piece engine diverged", name, par)
			}
		}
	}
}

// phase2Input is one component's Phase 2 in a round: its parents, the
// lowest-r% below-θ cliques in ascending score order, and the seed of its
// sampling stream.
type phase2Input struct {
	parents []scoredClique
	seed    int64
}

// phase2Inputs runs the first round of g up to Phase 2, as a run seeded
// 1 does: it filters a copy of g, scores its maximal cliques, and runs
// Phase 1 on every component. It returns that residual graph and every
// component's Phase 2 input, in ascending component key.
func phase2Inputs(g *graph.Graph, m *Model, theta, r float64) (*graph.Graph, []phase2Input) {
	g = g.Clone()
	Filter(g, hypergraph.New(g.NumNodes()))
	key := componentKeys(g, nil)
	cliques := g.MaximalCliques(2)
	scores := ScoreCliques(g, m, cliques)
	rest := map[int][]scoredClique{}
	for i, q := range cliques {
		if scores[i] <= theta {
			rest[key[q[0]]] = append(rest[key[q[0]]], scoredClique{nodes: q, score: scores[i]})
		}
	}
	BidirectionalSearch(g, m, SearchOptions{Theta: theta, DisableSubcliques: true, Parallelism: 1}, hypergraph.New(g.NumNodes()))
	keys := make([]int, 0, len(rest))
	for k := range rest {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var inputs []phase2Input
	for _, k := range keys {
		cs := rest[k]
		sortByScoreAsc(cs)
		inputs = append(inputs, phase2Input{parents: cs[:int(float64(len(cs))*r/100)], seed: sampleSeed(1, 0, k)})
	}
	return g, inputs
}

// TestParallelPhase2MatchesSerial: Phase 2 at workers 1, 2, 3 and 8,
// with the fan-out forced at the first draw, equals the serial walk that
// draws one sub-clique at a time and scores it if it is live (every pair
// still an edge after Phase 1), over the first round of eu and of every
// corpus family. At a θ below every score it returns every live draw,
// with the walk's nodes and a score bit-equal to a full Compute of the
// sub-clique, and leaves the stream where the walk leaves it; at θ = 0.9
// it returns the walk's above-θ live draws in the walk's order. eu's
// first round draws several blocks, so block boundaries are crossed too.
// (TestPhase2SkipsDeadDraws pins that dropping the dead draws moves no
// acceptance.)
func TestParallelPhase2MatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{{"eu", eu}}
	for _, f := range corpus.Families {
		graphs = append(graphs, namedGraph{f.Name, f.Gen(1)})
	}
	forceFanout(t)
	const theta = 0.9
	same := func(a, b scoredClique) bool {
		return slices.Equal(a.nodes, b.nodes) && math.Float64bits(a.score) == math.Float64bits(b.score)
	}
	for _, tc := range graphs {
		g, inputs := phase2Inputs(tc.g, m, theta, 40)
		fanned, blocks := 0, 0
		for c, in := range inputs {
			walk := newSampleRNG(in.seed)
			var ps PermSampler
			var ref scorer
			var all, above []scoredClique
			for _, p := range in.parents {
				for k := 2; k <= len(p.nodes)-1; k++ {
					sub := ps.Sample(p.nodes, k, walk)
					if !allEdgesPresent(g, sub) {
						continue
					}
					d := scoredClique{nodes: sub, score: m.scoreScratch(g, sub, false, &ref)}
					all = append(all, d)
					if d.score > theta {
						above = append(above, d)
					}
				}
			}
			if len(all) >= fanoutCliques {
				fanned++
			}
			blocks = max(blocks, (len(all)+drawBlock-1)/drawBlock)
			for _, workers := range []int{1, 2, 3, 8} {
				scs := new(roundScratch).workers(workers)
				for _, th := range []float64{-1, theta} {
					want := above
					if th < 0 {
						want = all
					}
					rng := newSampleRNG(in.seed)
					got, ok := exploreParents(context.Background(), g, m, in.parents, th, rng, scs, nil)
					switch {
					case !ok:
						t.Fatalf("%s component %d, workers=%d, θ=%v: Phase 2 reported a cancel", tc.name, c, workers, th)
					case rng.s != walk.s:
						t.Fatalf("%s component %d, workers=%d, θ=%v: stream at %d after Phase 2, the walk's at %d", tc.name, c, workers, th, rng.s, walk.s)
					case !slices.EqualFunc(got, want, same):
						t.Fatalf("%s component %d, workers=%d, θ=%v: %d draws, want the walk's %d with its nodes and scores, in its order", tc.name, c, workers, th, len(got), len(want))
					}
				}
			}
		}
		if tc.name == "eu" && (fanned == 0 || blocks < 2) {
			t.Fatalf("eu: %d components reach the fan-out point and the largest draws %d blocks, want at least one and two", fanned, blocks)
		}
		t.Logf("%s: %d components in Phase 2, %d past the fan-out point, at most %d blocks", tc.name, len(inputs), fanned, blocks)
	}
}

// TestPhase2SkipsDeadDraws: Phase 2 skips a draw before featurizing it
// exactly when one of its pairs is no edge of the residual graph after
// Phase 1, and the skip moves nothing. Over the first round of eu and of
// every corpus family, at workers 1, 2 and 8 with the fan-out forced, and
// with the pairs read off the component's table (Marioh) and off the
// graph's weights (a featurizer that reads no pairs), Phase 2 featurizes
// and returns the live draws of a draw-by-draw walk and no others, and
// leaves the stream where the walk leaves it. Its acceptances equal the
// walk's when the walk scores every draw, dead ones included: at the
// round's θ = 0.9, above which no dead draw scores here, and at θ = 0.01,
// above which about half of them do.
func TestPhase2SkipsDeadDraws(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{{"eu", eu}}
	for _, f := range corpus.Families {
		graphs = append(graphs, namedGraph{f.Name, f.Gen(1)})
	}
	forceFanout(t)
	thetas := []float64{0.9, 0.01}
	// accept runs a component's Phase 2 acceptance: the draws above θ, in
	// descending (score, nodes) order, while their edges last in a copy
	// of g.
	accept := func(g *graph.Graph, draws []scoredClique, theta float64) [][]int {
		g = g.Clone()
		var subs []scoredClique
		for _, d := range draws {
			if d.score > theta {
				subs = append(subs, d)
			}
		}
		sortByScoreDesc(subs)
		var out [][]int
		for _, c := range subs {
			if allEdgesPresent(g, c.nodes) {
				out = append(out, c.nodes)
				consumeClique(g, c.nodes)
			}
		}
		return out
	}
	nodesOf := func(subs []scoredClique) [][]int {
		var out [][]int
		for _, c := range subs {
			out = append(out, c.nodes)
		}
		return out
	}
	dead, deadAbove, accepted := 0, 0, 0
	for _, tc := range graphs {
		g, inputs := phase2Inputs(tc.g, m, thetas[0], 40)
		for c, in := range inputs {
			walk := newSampleRNG(in.seed)
			var ps PermSampler
			var ref scorer
			var every, live []scoredClique
			for _, p := range in.parents {
				for k := 2; k <= len(p.nodes)-1; k++ {
					sub := ps.Sample(p.nodes, k, walk)
					d := scoredClique{nodes: sub, score: m.scoreScratch(g, sub, false, &ref)}
					every = append(every, d)
					if allEdgesPresent(g, sub) {
						live = append(live, d)
						continue
					}
					dead++
					if d.score > thetas[1] {
						deadAbove++
					}
				}
			}
			for _, workers := range []int{1, 2, 8} {
				// A featurizer behind an interface reads no pairs, so the
				// weights answer the check, and every draw it featurizes
				// goes through AppendFeatures, where it is counted.
				counted := drawCancellingFeaturizer{Featurizer: features.Marioh{}, calls: new(atomic.Int64)}
				for _, mm := range []*Model{m, withFeaturizer(m, counted)} {
					name := fmt.Sprintf("%s component %d, workers=%d, featurizer %T", tc.name, c, workers, mm.Feat)
					counted.calls.Store(0)
					rng := newSampleRNG(in.seed)
					got, _ := exploreParents(context.Background(), g, mm, in.parents, -1, rng, new(roundScratch).workers(workers), nil)
					if !slices.EqualFunc(nodesOf(got), nodesOf(live), slices.Equal) || rng.s != walk.s {
						t.Fatalf("%s: %d draws at θ below every score, want the walk's %d live ones in its order, and the stream where the walk leaves it", name, len(got), len(live))
					}
					if mm != m && counted.calls.Load() != int64(len(live)) {
						t.Fatalf("%s: featurized %d draws, want the %d live ones", name, counted.calls.Load(), len(live))
					}
					for _, th := range thetas {
						kept, _ := exploreParents(context.Background(), g, mm, in.parents, th, newSampleRNG(in.seed), new(roundScratch).workers(workers), nil)
						got, want := accept(g, kept, th), accept(g, every, th)
						if !slices.EqualFunc(got, want, slices.Equal) {
							t.Fatalf("%s, θ=%v: accepts %d sub-cliques, want the %d the walk accepts scoring every draw", name, th, len(got), len(want))
						}
						if workers == 1 && mm == m {
							accepted += len(want)
						}
					}
				}
			}
		}
	}
	if deadAbove == 0 || accepted == 0 {
		t.Fatalf("weak fixture: %d dead draws, %d of them above θ=%v, %d sub-cliques accepted", dead, deadAbove, thetas[1], accepted)
	}
	t.Logf("%d dead draws skipped, %d of them above θ=%v; %d sub-cliques accepted", dead, deadAbove, thetas[1], accepted)
}

// drawCancellingFeaturizer reads features through an embedded Featurizer
// interface, which hides Marioh's sub-clique path, so ComputeSub scores
// every Phase 2 draw through AppendFeatures. It counts the draws it
// scores and cancels its context inside the at-th; at 0 never cancels.
type drawCancellingFeaturizer struct {
	features.Featurizer
	calls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (f drawCancellingFeaturizer) AppendFeatures(dst []float64, s *features.Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	if !maximal && f.calls.Add(1) == f.at {
		f.cancel()
	}
	return f.Featurizer.AppendFeatures(dst, s, g, q, maximal)
}

// TestPhase2CancelStopsParents: a cancel inside one of Phase 2's draws
// stops it at the next parent each worker would claim, so at most
// workers × (the largest parent's draw count) draws are scored after it,
// and Phase 2 reports the cancel. The cancel lands a third of the way
// into eu's first-round Phase 2, serial and fanned out.
func TestPhase2CancelStopsParents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, eu := pipelineTestSetup(t)
	g, inputs := phase2Inputs(eu, m, 0.9, 40)
	var in phase2Input
	draws, most := 0, 0
	for _, c := range inputs {
		n, top := 0, 0
		for _, p := range c.parents {
			n += max(len(p.nodes)-2, 0)
			top = max(top, len(p.nodes)-2)
		}
		if n > draws {
			in, draws, most = c, n, top
		}
	}
	at := int64(draws / 3)
	for _, workers := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		f := drawCancellingFeaturizer{Featurizer: features.Marioh{}, calls: new(atomic.Int64), at: at, cancel: cancel}
		_, ok := exploreParents(ctx, g, withFeaturizer(m, f), in.parents, 0.9, newSampleRNG(in.seed), new(roundScratch).workers(workers), nil)
		cancel()
		after, bound := f.calls.Load()-at, int64(workers*most)
		if ok || after < 0 {
			t.Fatalf("workers=%d: ok=%v after %d of %d draws, want the cancel at the %dth reported", workers, ok, f.calls.Load(), draws, at)
		}
		if after > bound {
			t.Errorf("workers=%d: scored %d draws after the cancel, want at most %d", workers, after, bound)
		}
		t.Logf("workers=%d: %d of %d draws scored after the cancel (largest parent: %d draws)", workers, after, draws, most)
	}
}

// TestParallelScorersBoundedByInput: a Parallelism far above the work
// makes a reconstruction no more scorers than the work has claims — one
// per seed in the loop and, in a round that searches one component, one
// per clique in Phase 2 — so a client-chosen worker count cannot grow
// memory past the input. A one-component graph of 12 nodes and 6
// maximal cliques, reconstructed round by round at Parallelism 1<<20 with
// the fan-out forced, ends with no more scorers than nodes.
func TestParallelScorersBoundedByInput(t *testing.T) {
	forceFanout(t)
	m, _ := pipelineTestSetup(t)
	g := graph.New(12)
	for _, q := range [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 6, 7}, {7, 8}, {8, 9, 10}, {10, 11}} {
		for i, u := range q {
			for _, v := range q[i+1:] {
				g.AddWeight(u, v, 1)
			}
		}
	}
	rs := new(roundScratch)
	rec := hypergraph.New(g.NumNodes())
	theta := 0.9
	for round := 0; g.NumEdges() > 0; round++ {
		if round == 40 {
			t.Fatalf("%d edges left after %d rounds", g.NumEdges(), round)
		}
		opts := SearchOptions{Theta: theta, R: 100, Round: round, Seed: 1, Parallelism: 1 << 20, StallDump: theta == 0, scratch: rs}
		if _, err := search(g, m, opts, rec); err != nil {
			t.Fatal(err)
		}
		if len(rs.scorers) > g.NumNodes() {
			t.Fatalf("round %d: %d scorers for %d nodes", round, len(rs.scorers), g.NumNodes())
		}
		theta = max(theta-0.1, 0)
	}
	t.Logf("%d scorers, %d hyperedges", len(rs.scorers), rec.NumTotal())
}
