package features

import (
	"math"
	"math/rand"
	"testing"

	"marioh/internal/graph"
)

// residualGraph is a dense random graph whose maximal cliques are then
// partly consumed, the way Phase 1 leaves the residual graph before
// Phase 2 scores sub-cliques of the cliques enumerated beforehand: some
// pairs lose multiplicity and some disappear (ω = 0).
func residualGraph(t *testing.T, seed int64) (*graph.Graph, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(30)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			if rng.Float64() < 0.45 {
				g.AddWeight(i, j, 1+rng.Intn(3))
			}
		}
	}
	cliques := g.MaximalCliques(2)
	for _, q := range cliques {
		if rng.Intn(3) != 0 {
			continue
		}
		for i := 0; i < len(q); i++ {
			for j := i + 1; j < len(q); j++ {
				if g.HasEdge(q[i], q[j]) {
					g.AddWeight(q[i], q[j], -1)
				}
			}
		}
	}
	return g, cliques
}

// subsets calls fn with every ascending position subset of [0, n) of
// size 2..n−1, the sizes Phase 2 draws.
func subsets(n int, fn func(pos []int)) {
	for mask := 0; mask < 1<<n; mask++ {
		var pos []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				pos = append(pos, i)
			}
		}
		if len(pos) >= 2 && len(pos) < n {
			fn(pos)
		}
	}
}

// TestComputeSubMatchesCompute: for every built-in featurizer, scoring a sub-clique through its parent must give, bit for bit,
// what Compute gives on the built sub-clique — on a residual graph where
// some of the parent's pairs are gone, with the parent's pairs read off a
// table built over the parent alone, and off a graph.PairTable over all
// the parents, as Phase 2 builds one after Phase 1.
func TestComputeSubMatchesCompute(t *testing.T) {
	g, cliques := residualGraph(t, 23)
	var cover []int
	for _, q := range cliques {
		cover = append(cover, q...)
	}
	var tab graph.PairTable
	tab.Build(g, cover)
	zeroPairs, oneOff := 0, 0
	for _, name := range Names() {
		f, _ := ByName(name)
		for _, table := range []*graph.PairTable{nil, &tab} {
			var s, ref Scratch
			var p Parent
			s.UseTable(table)
			for _, q := range cliques {
				if len(q) < 3 || len(q) > 10 {
					continue
				}
				p.Reset(q)
				subsets(len(q), func(pos []int) {
					sub := make([]int, len(pos))
					for i, j := range pos {
						sub[i] = q[j]
					}
					for _, maximal := range []bool{false, true} {
						want := append([]float64(nil), Compute(f, &ref, g, sub, maximal)...)
						got := ComputeSub(f, &s, g, &p, pos, maximal)
						if len(got) != len(want) {
							t.Fatalf("%s on %v at %v: %d dims, want %d", f.Name(), q, pos, len(got), len(want))
						}
						for d := range want {
							if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
								t.Fatalf("%s on %v at %v (maximal=%v, table=%v): dim %d = %v, Compute gives %v",
									f.Name(), q, pos, maximal, table != nil, d, got[d], want[d])
							}
						}
						// Interleaved Compute calls on the same scratch must
						// not disturb the parent's pairs.
						Compute(f, &s, g, q, maximal)
					}
				})
				if _, ok := f.(Marioh); ok && table == nil && len(q) >= 4 {
					oneOff++
					for i := 0; i < len(q); i++ {
						for j := i + 1; j < len(q); j++ {
							if !g.HasEdge(q[i], q[j]) {
								zeroPairs++
							}
						}
					}
				}
			}
		}
	}
	if oneOff < 10 || zeroPairs == 0 {
		t.Fatalf("weak fixture: %d parents read without a table, %d consumed pairs among them", oneOff, zeroPairs)
	}
}
