package marioh_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/features"
	"marioh/internal/hypergraph"
	"marioh/internal/mlp"
)

// Substrate micro-benchmarks: the adjacency-engine operations that dominate
// per-round reconstruction time (see README "Adjacency engine"). Run with
//
//	go test -run '^$' -bench 'HasEdge|MaximalCliques|ScoreCliques|FeaturesMarioh' -benchmem .
//
// and compare before/after with benchstat. `make bench-json` records a run
// into BENCH_<date>.json.

// benchGraph caches the eu target projection used by the substrate benches.
func benchGraph(b *testing.B) *trainedSetup {
	b.Helper()
	return setup(b, "eu")
}

// BenchmarkHasEdge probes a deterministic mix of present and absent pairs,
// the access pattern of Bron–Kerbosch pivoting and IsClique checks.
func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b).gT
	edges := g.Edges()
	rng := rand.New(rand.NewSource(7))
	const nPairs = 4096
	us := make([]int, nPairs)
	vs := make([]int, nPairs)
	for i := 0; i < nPairs; i++ {
		if i%2 == 0 { // present pair
			e := edges[rng.Intn(len(edges))]
			us[i], vs[i] = e.U, e.V
		} else { // random (usually absent) pair
			us[i] = rng.Intn(g.NumNodes())
			vs[i] = (us[i] + 1 + rng.Intn(g.NumNodes()-1)) % g.NumNodes()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		j := i % nPairs
		if g.HasEdge(us[j], vs[j]) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkScoreCliques measures the full steady-state scoring pass
// (features + standardize + MLP forward) over one round's maximal cliques.
func BenchmarkScoreCliques(b *testing.B) {
	s := benchGraph(b)
	cliques := s.gT.MaximalCliques(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ScoreCliques(s.gT, s.model, cliques)
	}
}

// BenchmarkSubcliqueScoring is one Phase-2 pass of Algorithm 3 over a
// fixed eu residual round: the filtered target after the first round's
// Phase 1, with the lowest 40% of the round's below-θ maximal cliques as
// parents, each explored with one random sub-clique per size.
func BenchmarkSubcliqueScoring(b *testing.B) {
	s := benchGraph(b)
	const theta, r = 0.9, 40
	g := s.gT.Clone()
	rec := hypergraph.New(g.NumNodes())
	core.Filter(g, rec)
	cliques := g.MaximalCliques(2)
	scores := core.ScoreCliques(g, s.model, cliques)
	var rest []int
	for i, sc := range scores {
		if sc <= theta {
			rest = append(rest, i)
		}
	}
	slices.SortStableFunc(rest, func(x, y int) int { return cmp.Compare(scores[x], scores[y]) })
	parents := make([][]int, 0, len(rest)*r/100)
	for _, i := range rest[:cap(parents)] {
		parents = append(parents, cliques[i])
	}
	core.BidirectionalSearch(g, s.model, core.SearchOptions{Theta: theta, R: r, DisableSubcliques: true, Parallelism: 1}, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ScoreSubcliques(g, s.model, parents, theta, 1)
	}
}

// BenchmarkFeaturesMarioh isolates the multiplicity-aware featurizer (the
// WeightedDegree / ω / MHH access pattern) through table-less Compute, the
// one-off path of Model.Score: each clique is read off a pair table built
// over it alone. The scoring path reads a round-wide table instead; see
// BenchmarkScoreCliques.
func BenchmarkFeaturesMarioh(b *testing.B) {
	g := benchGraph(b).gT
	cliques := g.MaximalCliques(2)
	feat := features.Marioh{}
	var s features.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cliques[i%len(cliques)]
		features.Compute(feat, &s, g, q, true)
	}
}

// BenchmarkFeaturesShyreMotif covers the common-neighbor-count sharing path
// of the SHyRe-Motif featurizer.
func BenchmarkFeaturesShyreMotif(b *testing.B) {
	g := benchGraph(b).gT
	cliques := g.MaximalCliques(2)
	feat := features.ShyreMotif{}
	var s features.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cliques[i%len(cliques)]
		features.Compute(feat, &s, g, q, true)
	}
}

// BenchmarkMLPForwardScratch is the steady-state forward pass with reused
// activation buffers, as driven by clique scoring: the bench model's net
// cycles through the standardized Marioh feature vectors of eu's maximal
// cliques, the inputs real scoring sees, so the ReLU gates vary from call
// to call as they do there. The vectors are built before the timer starts.
func BenchmarkMLPForwardScratch(b *testing.B) {
	s := benchGraph(b)
	cliques := s.gT.MaximalCliques(2)
	var fs features.Scratch
	inputs := make([][]float64, len(cliques))
	for i, q := range cliques {
		x := features.Compute(s.model.Feat, &fs, s.gT, q, true)
		inputs[i] = s.model.Std.Transform(slices.Clone(x))
	}
	var fwd mlp.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.model.Net.ForwardScratch(inputs[i%len(inputs)], &fwd)
	}
}

// BenchmarkMLPTrain is Net.Train on a seeded set the size of eu's
// training examples (3,322 × 23) with the default 23-32-16-1 net, 5
// epochs: the forward and backward kernels and the Adam step of the
// training stage, on one goroutine. Each op trains a fresh net.
func BenchmarkMLPTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 3322)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, 23)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		if X[i][0]+X[i][1]*X[i][2] > 0 {
			y[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := mlp.New(23, []int{32, 16}, 1)
		b.StartTimer()
		net.Train(X, y, mlp.TrainOptions{Epochs: 5, Seed: 1})
	}
}

// BenchmarkDegeneracyOrdering exercises the bucket-queue peel that seeds
// every maximal-clique enumeration.
func BenchmarkDegeneracyOrdering(b *testing.B) {
	g := benchGraph(b).gT
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DegeneracyOrdering()
	}
}

// BenchmarkCommonNeighborCount measures the merge-based intersection size
// used by the SHyRe featurizers.
func BenchmarkCommonNeighborCount(b *testing.B) {
	ds := datasets.MustByName("eu", 1)
	g := ds.Target.Reduced().Project()
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.CountCommonNeighbors(e.U, e.V)
	}
}
