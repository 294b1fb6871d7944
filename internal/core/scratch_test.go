package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// TestPermSamplerMatchesRandPerm pins the determinism contract of the
// allocation-reduced subset sampler: for the same seeded rng it must return
// exactly what the old rng.Perm-based sampler returned AND leave the rng
// stream in the same position, so seeded reconstruction output is
// bit-for-bit unchanged. The position draw Phase 2 uses must pick the
// same subset of a sorted q.
func TestPermSamplerMatchesRandPerm(t *testing.T) {
	sample := func(ps *PermSampler, q []int, k int, rng *rand.Rand) []int {
		return ps.Sample(q, k, rng)
	}
	positions := func(ps *PermSampler, q []int, k int, rng *rand.Rand) []int {
		var out []int
		for _, j := range ps.SamplePositions(len(q), k, rng) {
			out = append(out, q[j])
		}
		return out
	}
	cases := []struct {
		name string
		q    []int
		draw func(ps *PermSampler, q []int, k int, rng *rand.Rand) []int
	}{
		{"Sample", []int{3, 14, 15, 92, 65, 35, 89, 79}, sample},
		{"SamplePositions", []int{3, 14, 15, 35, 65, 79, 89, 92}, positions},
	}
	for _, c := range cases {
		q := c.q
		for seed := int64(0); seed < 20; seed++ {
			for k := 1; k <= len(q); k++ {
				rngA := rand.New(rand.NewSource(seed))
				rngB := rand.New(rand.NewSource(seed))

				var ps PermSampler
				got := c.draw(&ps, q, k, rngA)

				idx := rngB.Perm(len(q))[:k]
				want := make([]int, k)
				for i, j := range idx {
					want[i] = q[j]
				}
				sort.Ints(want)

				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d k %d: sample %v, want %v", c.name, seed, k, got, want)
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Fatalf("%s seed %d k %d: rng stream diverged (%d vs %d)", c.name, seed, k, a, b)
				}
			}
		}
	}
}

// phase2Fixture is a round's state as Phase 2 finds it: a trained model,
// the residual graph after Phase 1 consumed the above-θ cliques, and the
// below-θ cliques (of at least three nodes) as parents. Some parents have
// lost pairs to Phase 1.
func phase2Fixture(t *testing.T, feat features.Featurizer) (g *graph.Graph, m *Model, parents [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	h := randomHypergraph(rng, 40, 120)
	g = h.Project()
	m = Train(g, h, TrainOptions{Seed: 9, Epochs: 5, Featurizer: feat})
	cliques := g.MaximalCliques(2)
	scores := ScoreCliques(g, m, cliques)
	sorted := slices.Clone(scores)
	slices.Sort(sorted)
	theta := sorted[len(sorted)/2]
	for i, q := range cliques {
		if scores[i] <= theta && len(q) >= 3 {
			parents = append(parents, q)
		}
	}
	BidirectionalSearch(g, m, SearchOptions{Theta: theta, DisableSubcliques: true, Parallelism: 1}, hypergraph.New(g.NumNodes()))
	consumed := 0
	for _, q := range parents {
		if len(q) >= 4 && !allEdgesPresent(g, q) {
			consumed++
		}
	}
	if len(parents) < 10 || consumed == 0 {
		t.Fatalf("weak fixture: %d parents, %d of them with consumed pairs", len(parents), consumed)
	}
	return g, m, parents
}

// TestExploreSubcliquesMatchesPerDrawScoring: Phase 2's draws, scored off
// one pair sweep per parent, must be the sub-cliques Sample draws from the
// same stream, with the scores a full Compute of each gives, bit for bit,
// and must leave the stream where per-draw sampling leaves it.
func TestExploreSubcliquesMatchesPerDrawScoring(t *testing.T) {
	for _, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		feat, _ := features.ByName(name)
		g, m, parents := phase2Fixture(t, feat)
		rngA, rngB := newSampleRNG(3), newSampleRNG(3)
		var sc, ref scorer
		var ps PermSampler
		var got []scoredClique
		for _, q := range parents {
			got = exploreSubcliques(g, m, q, -1, rngA, &sc, got)
		}
		i := 0
		for _, q := range parents {
			for k := 2; k <= len(q)-1; k++ {
				sub := ps.Sample(q, k, rngB)
				want := m.scoreScratch(g, sub, false, &ref)
				if i >= len(got) {
					t.Fatalf("%s: %d draws, want more", name, len(got))
				}
				if !reflect.DeepEqual(got[i].nodes, sub) || math.Float64bits(got[i].score) != math.Float64bits(want) {
					t.Fatalf("%s draw %d of %v: %v scored %v, want %v scored %v",
						name, i, q, got[i].nodes, got[i].score, sub, want)
				}
				i++
			}
		}
		if i != len(got) || rngA.s != rngB.s {
			t.Fatalf("%s: %d draws (want %d), stream at %d (want %d)", name, len(got), i, rngA.s, rngB.s)
		}
	}
}

// TestPhase2AllocationsBounded: with a warm scorer, Phase 2 allocates one
// node slice per draw that scores above θ and nothing for the rest.
func TestPhase2AllocationsBounded(t *testing.T) {
	g, m, parents := phase2Fixture(t, features.Marioh{})
	var sc scorer
	var rng sampleRNG
	var subs []scoredClique
	explore := func(theta float64) {
		rng = sampleRNG{s: 11}
		subs = subs[:0]
		for _, q := range parents {
			subs = exploreSubcliques(g, m, q, theta, &rng, &sc, subs)
		}
	}
	explore(-1) // every draw: warms the scorer and sizes subs
	draws := len(subs)
	scores := make([]float64, draws)
	for i, s := range subs {
		scores[i] = s.score
	}
	slices.Sort(scores)
	theta := scores[draws*3/4]
	explore(theta)
	kept := len(subs)
	allocs := testing.AllocsPerRun(10, func() { explore(theta) })
	if allocs > float64(kept) || kept >= draws/2 {
		t.Fatalf("Phase 2 allocates %.0f times for %d draws, %d above θ; want at most one per kept draw",
			allocs, draws, kept)
	}
}

// TestModelScoreAllocationFree: Model.Score reuses its buffers across
// calls, so scoring a clique of three or more nodes allocates nothing in
// the steady state. (Under the race detector sync.Pool drops a share of
// its items on purpose, so the count is only meaningful without it.)
func TestModelScoreAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(43))
	h := randomHypergraph(rng, 40, 120)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 3, Epochs: 3})
	var q []int
	for _, c := range g.MaximalCliques(2) {
		if len(c) > len(q) {
			q = c
		}
	}
	if len(q) < 4 {
		t.Fatalf("largest clique has %d nodes, want ≥ 4", len(q))
	}
	want := m.Score(g, q, true)
	if allocs := testing.AllocsPerRun(100, func() { m.Score(g, q, true) }); allocs > 0 {
		t.Fatalf("Model.Score allocates %.1f times per call, want 0", allocs)
	}
	var sc scorer
	if got := m.scoreScratch(g, q, true, &sc); got != want {
		t.Fatalf("pooled Score %v != scratch score %v", want, got)
	}
}

// TestScoreScratchMatchesScore: the per-worker scratch path must reproduce
// Model.Score bit for bit on every built-in featurizer.
func TestScoreScratchMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := randomHypergraph(rng, 14, 12)
	g := h.Project()
	for _, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		feat, ok := features.ByName(name)
		if !ok {
			t.Fatalf("featurizer %q missing", name)
		}
		m := Train(g, h, TrainOptions{Seed: 7, Epochs: 5, Featurizer: feat})
		var sc scorer
		for _, q := range g.MaximalCliques(2) {
			want := m.Score(g, q, true)
			if got := m.scoreScratch(g, q, true, &sc); got != want {
				t.Fatalf("%s: scratch score %v != %v for %v", name, got, want, q)
			}
			// Reuse across calls must not leak state between cliques.
			if got := m.scoreScratch(g, q, false, &sc); got != m.Score(g, q, false) {
				t.Fatalf("%s: scratch score diverges on reuse for %v", name, q)
			}
		}
	}
}

// TestScoreCliquesAllocationFree: the steady-state scoring pass must not
// allocate per clique (a handful of setup allocations are allowed).
func TestScoreCliquesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	h := randomHypergraph(rng, 40, 120)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 3, Epochs: 3})
	cliques := g.MaximalCliques(2)
	if len(cliques) < 20 {
		t.Fatalf("want a meaty round, got %d cliques", len(cliques))
	}
	var sc scorer
	// Warm the scratch, then measure.
	for _, q := range cliques {
		m.scoreScratch(g, q, true, &sc)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, q := range cliques {
			m.scoreScratch(g, q, true, &sc)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state scoring allocates %.1f times per round over %d cliques, want 0",
			allocs, len(cliques))
	}
}

// TestScoreCliquesScratchParallelMatchesSequential: the chunked fan-out
// with per-worker scratch must reproduce the sequential scores exactly.
func TestScoreCliquesScratchParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	h := randomHypergraph(rng, 30, 80)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 5, Epochs: 3})
	base := g.MaximalCliques(2)
	// Replicate cliques past the parallel threshold.
	var cliques [][]int
	for len(cliques) < fanoutCliques+37 {
		cliques = append(cliques, base...)
	}
	par := ScoreCliques(g, m, cliques)
	var sc scorer
	for i, q := range cliques {
		if want := m.scoreScratch(g, q, true, &sc); par[i] != want {
			t.Fatalf("clique %d: parallel %v != sequential %v", i, par[i], want)
		}
	}
}

// TestModelScoreParallel: concurrent Score calls share the buffer pool and
// must each return the serial score.
func TestModelScoreParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	h := randomHypergraph(rng, 30, 80)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 5, Epochs: 3})
	cliques := g.MaximalCliques(2)
	want := make([]float64, len(cliques))
	for i, q := range cliques {
		want[i] = m.Score(g, q, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range cliques {
				if got := m.Score(g, q, true); got != want[i] {
					t.Errorf("concurrent Score of %v = %v, want %v", q, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
