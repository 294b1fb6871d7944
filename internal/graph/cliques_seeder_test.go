package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// randomTestGraph builds a seeded multi-component G(n, p)-style graph with
// a planted dense core, a shape that exercises both many seeds and the
// bitset rows.
func randomTestGraph(t *testing.T, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddWeight(u, v, 1+rng.Intn(3))
			}
		}
	}
	// Plant a clique over every fourth node so maximal cliques overlap.
	for u := 0; u < n; u += 4 {
		for v := u + 4; v < n && v < u+20; v += 4 {
			if !g.HasEdge(u, v) {
				g.AddWeight(u, v, 1)
			}
		}
	}
	return g
}

// seederParallelCliques enumerates g's maximal cliques the way the round's
// enumerate-and-score loop does: workers claim seed indices from an atomic
// counter and share one CliqueSeeder, each with its own CliqueEnum, and
// collect every seed's cliques in that seed's bucket. Joining the buckets
// in seed order, cutting the first limit cliques (limit < 0: all) and
// sorting them must give MaximalCliquesLimit's result.
func seederParallelCliques(g *Graph, minSize, limit, workers int) [][]int {
	s := g.CliqueSeeds(minSize)
	buckets := make([][][]int, s.NumSeeds())
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc CliqueEnum
			for {
				i := int(next.Add(1)) - 1
				if i >= s.NumSeeds() {
					return
				}
				s.EnumSeed(i, &sc, func(c []int) bool {
					buckets[i] = append(buckets[i], append([]int(nil), c...))
					return true
				})
			}
		}()
	}
	wg.Wait()
	var out [][]int
	for _, b := range buckets {
		out = append(out, b...)
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	slices.SortFunc(out, cmpIntSlice)
	return out
}

// TestMaximalCliquesParallelMatchesSerial: one CliqueSeeder shared by
// concurrent workers, joined in seed order, reproduces MaximalCliquesLimit
// at every worker count and every limit.
func TestMaximalCliquesParallelMatchesSerial(t *testing.T) {
	graphs := map[string]*Graph{
		"sparse":    randomTestGraph(t, 60, 0.05, 1),
		"medium":    randomTestGraph(t, 48, 0.2, 2),
		"dense":     randomTestGraph(t, 28, 0.5, 3),
		"empty":     New(10),
		"singleton": New(1),
	}
	for name, g := range graphs {
		serialAll := g.MaximalCliquesLimit(2, -1)
		limits := []int{-1, 1, 2, 7, len(serialAll), len(serialAll) + 10}
		for _, workers := range []int{1, 2, 3, 8, 64} {
			for _, limit := range limits {
				want := g.MaximalCliquesLimit(2, limit)
				got := seederParallelCliques(g, 2, limit, workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: workers=%d limit=%d: parallel enumeration diverged: got %d cliques, want %d",
						name, workers, limit, len(got), len(want))
				}
			}
		}
	}
}

// TestCliqueSeederStreamMatchesEachMaximalClique pins the seeder contract
// the round's enumerate-and-score loop is built on: running every seed in index order
// reproduces the EachMaximalClique stream element for element.
func TestCliqueSeederStreamMatchesEachMaximalClique(t *testing.T) {
	g := randomTestGraph(t, 40, 0.15, 7)
	var want [][]int
	g.EachMaximalClique(2, func(c []int) bool {
		want = append(want, append([]int(nil), c...))
		return true
	})
	s := g.CliqueSeeds(2)
	var sc CliqueEnum
	var got [][]int
	for i := 0; i < s.NumSeeds(); i++ {
		if !s.EnumSeed(i, &sc, func(c []int) bool {
			got = append(got, append([]int(nil), c...))
			return true
		}) {
			t.Fatalf("EnumSeed(%d) reported an early stop without fn asking for one", i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed-by-seed stream diverged: got %d cliques, want %d", len(got), len(want))
	}
}
