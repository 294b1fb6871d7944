package core

import (
	"context"
	"fmt"
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
		if len(q) >= 4 && !g.IsClique(q) {
			consumed++
		}
	}
	if len(parents) < 10 || consumed == 0 {
		t.Fatalf("weak fixture: %d parents, %d of them with consumed pairs", len(parents), consumed)
	}
	return g, m, parents
}

// TestExploreSubcliquesMatchesPerDrawScoring: Phase 2's draws, scored off
// one read of each parent's pairs — off a table over the parent alone, or
// off the component's pair table as exploreParents builds it — must be
// the live sub-cliques (every pair still an edge) that Sample draws from
// the same stream, with the scores a full Compute of each gives with no
// table attached, bit for bit, and must leave the stream where per-draw
// sampling leaves it.
func TestExploreSubcliquesMatchesPerDrawScoring(t *testing.T) {
	for _, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		feat, _ := features.ByName(name)
		g, m, parents := phase2Fixture(t, feat)
		ps := make([]scoredClique, len(parents))
		for i, q := range parents {
			ps[i].nodes = q
		}
		for _, table := range []bool{false, true} {
			rngA, rngB := newSampleRNG(3), newSampleRNG(3)
			var sc, ref scorer
			var got []scoredClique
			if table {
				got, _ = exploreParents(context.Background(), g, m, ps, -1, rngA, []*scorer{&sc}, nil)
			} else {
				got, _ = sc.draws.explore(context.Background(), g, m, ps, -1, rngA, []*scorer{&sc}, nil, nil)
			}
			checkDraws(t, fmt.Sprintf("%s (table=%v)", name, table), g, m, parents, got, rngA, rngB, &ref)
		}
	}
}

// checkDraws compares Phase 2's draws got, drawn from rngA, against
// per-draw sampling from rngB and scoring each live draw on ref.
func checkDraws(t *testing.T, name string, g *graph.Graph, m *Model, parents [][]int, got []scoredClique, rngA, rngB *sampleRNG, ref *scorer) {
	t.Helper()
	var ps PermSampler
	i := 0
	for _, q := range parents {
		for k := 2; k <= len(q)-1; k++ {
			sub := ps.Sample(q, k, rngB)
			if !g.IsClique(sub) {
				continue
			}
			want := m.scoreScratch(g, sub, false, ref)
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

// TestPhase2AllocationsBounded: with a warm scorer, Phase 2 allocates one
// node slice per draw that scores above θ and nothing for the rest — with
// a table per parent and with one per component, each rebuilt into the
// warm arrays of the previous build. A cold scorer, as every run starts
// with, sizes its feature, parent and sampler buffers once per component
// and its draw buffer once per block, so its first pass costs a constant
// number of buffer allocations on top of the kept draws, not a growth
// step per larger parent or per few draws.
func TestPhase2AllocationsBounded(t *testing.T) {
	g, m, parents := phase2Fixture(t, features.Marioh{})
	ps := make([]scoredClique, len(parents))
	for i, q := range parents {
		ps[i].nodes = q
	}
	for _, table := range []bool{false, true} {
		var rng sampleRNG
		var subs []scoredClique
		explore := func(scs []*scorer, theta float64) {
			rng = sampleRNG{s: 11}
			subs = subs[:0]
			if table {
				subs, _ = exploreParents(context.Background(), g, m, ps, theta, &rng, scs, subs)
				return
			}
			subs, _ = scs[0].draws.explore(context.Background(), g, m, ps, theta, &rng, scs, nil, subs)
		}
		warm := []*scorer{new(scorer)}
		explore(warm, -1) // every draw: warms the scorer and sizes subs
		draws := len(subs)
		scores := make([]float64, draws)
		for i, s := range subs {
			scores[i] = s.score
		}
		slices.Sort(scores)
		theta := scores[draws*3/4]
		explore(warm, theta)
		kept := len(subs)
		allocs := testing.AllocsPerRun(10, func() { explore(warm, theta) })
		if allocs > float64(kept) || kept >= draws/2 {
			t.Fatalf("table=%v: Phase 2 allocates %.0f times for %d draws, %d above θ; want at most one per kept draw",
				table, allocs, draws, kept)
		}
		// A cold scorer's buffers (features, pair table, draws) take 26
		// allocations with one table per component and 39 with one per
		// parent, whose rows grow with the parents, with or without the
		// race detector. Growing them parent by
		// parent instead, as each grew before it was sized per component,
		// took 87–88, and growing the draw buffer by append, draw by draw,
		// costs about 21 more: both past the bound.
		const coldBuffers = 40
		cold := testing.AllocsPerRun(10, func() { explore([]*scorer{new(scorer)}, theta) })
		if cold > float64(kept+coldBuffers) {
			t.Fatalf("table=%v: a cold scorer allocates %.0f times for %d draws, %d above θ; want at most %d more than the kept draws",
				table, cold, draws, kept, coldBuffers)
		}
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
// allocate per clique, with no table attached (a table per clique) or
// reading pairs off a warm table that is rebuilt every round, as the
// enumerate-and-score loop rebuilds it.
func TestScoreCliquesAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	h := randomHypergraph(rng, 40, 120)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 3, Epochs: 3})
	cliques := g.MaximalCliques(2)
	if len(cliques) < 20 {
		t.Fatalf("want a meaty round, got %d cliques", len(cliques))
	}
	for _, table := range []bool{false, true} {
		var sc scorer
		round := func() {
			if table {
				t := sc.feat.Table()
				t.Build(g, nil)
				sc.feat.UseTable(t)
			}
			for _, q := range cliques {
				m.scoreScratch(g, q, true, &sc)
			}
		}
		round() // warm the scratch and the table, then measure
		if allocs := testing.AllocsPerRun(10, round); allocs > 0 {
			t.Fatalf("table=%v: steady-state scoring allocates %.1f times per round over %d cliques, want 0",
				table, allocs, len(cliques))
		}
	}
}

// TestScoreCliquesScratchParallelMatchesSequential: ScoreCliques past the
// fan-out point, its workers reading one shared pair table, must
// reproduce the scores of sequential table-less scoring exactly.
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
