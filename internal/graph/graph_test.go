package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 0 || g.TotalWeight() != 0 {
		t.Fatalf("empty graph has edges: %d weight %d", g.NumEdges(), g.TotalWeight())
	}
}

func TestAddWeightCreatesAndRemovesEdges(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 3)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing after AddWeight")
	}
	if g.Weight(0, 1) != 3 || g.Weight(1, 0) != 3 {
		t.Fatalf("weight = %d/%d, want 3", g.Weight(0, 1), g.Weight(1, 0))
	}
	if g.NumEdges() != 1 || g.TotalWeight() != 3 {
		t.Fatalf("NumEdges=%d TotalWeight=%d", g.NumEdges(), g.TotalWeight())
	}
	g.AddWeight(0, 1, -3)
	if g.HasEdge(0, 1) || g.NumEdges() != 0 || g.TotalWeight() != 0 {
		t.Fatal("edge survived removal to zero weight")
	}
}

func TestAddWeightPanics(t *testing.T) {
	g := New(3)
	mustPanic(t, "self-loop", func() { g.AddWeight(1, 1, 1) })
	mustPanic(t, "negative result", func() { g.AddWeight(0, 1, -1) })
	mustPanic(t, "out of range", func() { g.AddWeight(0, 7, 1) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestSetWeight(t *testing.T) {
	g := New(3)
	g.SetWeight(0, 1, 5)
	g.SetWeight(0, 1, 2)
	if g.Weight(0, 1) != 2 {
		t.Fatalf("weight = %d, want 2", g.Weight(0, 1))
	}
	g.SetWeight(0, 1, 0)
	if g.HasEdge(0, 1) {
		t.Fatal("SetWeight(0) should remove the edge")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(3)
	g.AddWeight(0, 1, 4)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.TotalWeight() != 0 {
		t.Fatal("RemoveEdge left residue")
	}
	g.RemoveEdge(0, 2) // removing a non-edge is a no-op
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 2)
	g.AddWeight(0, 2, 3)
	if g.Degree(0) != 2 || g.WeightedDegree(0) != 5 {
		t.Fatalf("Degree=%d WeightedDegree=%d, want 2 and 5", g.Degree(0), g.WeightedDegree(0))
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
	if got := g.Neighbors(3); len(got) != 0 {
		t.Fatalf("Neighbors(3) = %v, want empty", got)
	}
}

func TestEdgesSortedAndClone(t *testing.T) {
	g := New(4)
	g.AddWeight(2, 3, 1)
	g.AddWeight(0, 1, 2)
	g.AddWeight(1, 3, 5)
	want := []Edge{{0, 1, 2}, {1, 3, 5}, {2, 3, 1}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
	c := g.Clone()
	c.AddWeight(0, 1, 1)
	if g.Weight(0, 1) != 2 {
		t.Fatal("Clone shares state with original")
	}
	if c.NumEdges() != g.NumEdges() || c.TotalWeight() != g.TotalWeight()+1 {
		t.Fatal("Clone counters wrong")
	}
}

func TestCommonNeighborsAndSumMin(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0 and 1.
	g := New(4)
	g.AddWeight(0, 1, 5)
	g.AddWeight(0, 2, 2)
	g.AddWeight(1, 2, 3)
	g.AddWeight(0, 3, 4)
	g.AddWeight(1, 3, 1)
	if got := g.CommonNeighbors(0, 1); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("CommonNeighbors = %v", got)
	}
	// MHH(0,1) = min(2,3) + min(4,1) = 2 + 1 = 3.
	if got := g.SumMinCommonWeight(0, 1); got != 3 {
		t.Fatalf("SumMinCommonWeight = %d, want 3", got)
	}
	// Endpoints themselves must never be counted.
	if got := g.SumMinCommonWeight(0, 2); got != min(5, 3) {
		t.Fatalf("SumMinCommonWeight(0,2) = %d, want %d", got, min(5, 3))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestIsClique(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 2, 1)
	g.AddWeight(1, 2, 1)
	if !g.IsClique([]int{0, 1, 2}) {
		t.Fatal("triangle not recognized as clique")
	}
	if g.IsClique([]int{0, 1, 3}) {
		t.Fatal("non-clique accepted")
	}
	if !g.IsClique([]int{0}) || !g.IsClique(nil) {
		t.Fatal("trivial cliques rejected")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.AddWeight(0, 1, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(4, 5, 1)
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("components = %v, want %v", comps, want)
	}
}

func TestTriangles(t *testing.T) {
	g := New(5)
	// K4 on {0,1,2,3} has 4 triangles.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	n := 0
	g.Triangles(func(_, _, _ int) bool { n++; return true })
	if n != 4 {
		t.Fatalf("Triangles visited %d triangles, want 4", n)
	}
	// Early stop.
	n = 0
	g.Triangles(func(_, _, _ int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d triangles", n)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddWeight(1, 3, 7)
	g.AddWeight(3, 4, 2)
	sub, back := g.Subgraph([]int{1, 3})
	if sub.NumNodes() != 2 || sub.Weight(0, 1) != 7 {
		t.Fatalf("subgraph wrong: nodes=%d w=%d", sub.NumNodes(), sub.Weight(0, 1))
	}
	if !reflect.DeepEqual(back, []int{1, 3}) {
		t.Fatalf("back-map = %v", back)
	}
}

func TestDegeneracyOrdering(t *testing.T) {
	// A triangle with a pendant: degeneracy 2.
	g := New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 2, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(2, 3, 1)
	order, d := g.DegeneracyOrdering()
	if d != 2 {
		t.Fatalf("degeneracy = %d, want 2", d)
	}
	if len(order) != 4 {
		t.Fatalf("order covers %d nodes", len(order))
	}
	seen := map[int]bool{}
	for _, u := range order {
		if seen[u] {
			t.Fatalf("node %d repeated in ordering", u)
		}
		seen[u] = true
	}
}

func TestMaximalCliquesTriangleWithPendant(t *testing.T) {
	g := New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 2, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(2, 3, 1)
	got := g.MaximalCliques(2)
	want := [][]int{{0, 1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MaximalCliques = %v, want %v", got, want)
	}
}

func TestMaximalCliquesCompleteGraph(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	got := g.MaximalCliques(2)
	if len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("K6 should have exactly one maximal clique, got %v", got)
	}
}

func TestMaximalCliquesLimit(t *testing.T) {
	g := New(8)
	// Four disjoint edges = four maximal cliques.
	for i := 0; i < 8; i += 2 {
		g.AddWeight(i, i+1, 1)
	}
	if got := g.MaximalCliquesLimit(2, 2); len(got) != 2 {
		t.Fatalf("limit ignored: %d cliques", len(got))
	}
}

func TestKCliques(t *testing.T) {
	g := New(5)
	// K4 on {0,1,2,3}: C(4,3)=4 triangles, C(4,2)=6 edges.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	if got := g.KCliques(3, -1); len(got) != 4 {
		t.Fatalf("KCliques(3) found %d, want 4", len(got))
	}
	if got := g.KCliques(2, -1); len(got) != 6 {
		t.Fatalf("KCliques(2) found %d, want 6", len(got))
	}
	if got := g.KCliques(4, -1); len(got) != 1 {
		t.Fatalf("KCliques(4) found %d, want 1", len(got))
	}
	if got := g.KCliques(5, -1); len(got) != 0 {
		t.Fatalf("KCliques(5) found %d, want 0", len(got))
	}
	if got := g.KCliques(3, 2); len(got) != 2 {
		t.Fatalf("KCliques limit ignored: %d", len(got))
	}
}

// TestQuickCloneEquality: Clone preserves weights for arbitrary edge
// insertion sequences.
func TestQuickCloneEquality(t *testing.T) {
	f := func(pairs [][3]uint8) bool {
		g := New(16)
		for _, p := range pairs {
			u, v := int(p[0]%16), int(p[1]%16)
			if u == v {
				continue
			}
			g.AddWeight(u, v, int(p[2]%5)+1)
		}
		c := g.Clone()
		if c.NumEdges() != g.NumEdges() || c.TotalWeight() != g.TotalWeight() {
			return false
		}
		for _, e := range g.Edges() {
			if c.Weight(e.U, e.V) != e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMaximalCliquesAreMaximalCliques: every emitted set is a clique
// and cannot be extended, on random graphs.
func TestQuickMaximalCliquesAreMaximalCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(8)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					g.AddWeight(i, j, 1+rng.Intn(3))
				}
			}
		}
		cliques := g.MaximalCliques(1)
		seen := map[string]bool{}
		for _, q := range cliques {
			if !g.IsClique(q) {
				t.Fatalf("trial %d: %v is not a clique", trial, q)
			}
			// Maximality: no node extends q.
			for v := 0; v < n; v++ {
				if containsInt(q, v) {
					continue
				}
				ext := true
				for _, u := range q {
					if !g.HasEdge(u, v) {
						ext = false
						break
					}
				}
				if ext {
					t.Fatalf("trial %d: clique %v extendable by %d", trial, q, v)
				}
			}
			k := keyOf(q)
			if seen[k] {
				t.Fatalf("trial %d: duplicate clique %v", trial, q)
			}
			seen[k] = true
		}
		// Completeness: every maximal clique found by brute force appears.
		for _, q := range bruteForceMaximalCliques(g) {
			if !seen[keyOf(q)] {
				t.Fatalf("trial %d: missing maximal clique %v", trial, q)
			}
		}
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func keyOf(q []int) string {
	b := make([]byte, 0, len(q)*3)
	for _, v := range q {
		b = append(b, byte(v), ',')
	}
	return string(b)
}

// bruteForceMaximalCliques enumerates all subsets (n ≤ ~15) and keeps the
// maximal cliques.
func bruteForceMaximalCliques(g *Graph) [][]int {
	n := g.NumNodes()
	var cliques [][]int
	for mask := 1; mask < 1<<n; mask++ {
		var q []int
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				q = append(q, v)
			}
		}
		if !g.IsClique(q) {
			continue
		}
		maximal := true
		for v := 0; v < n && maximal; v++ {
			if containsInt(q, v) {
				continue
			}
			ext := true
			for _, u := range q {
				if !g.HasEdge(u, v) {
					ext = false
					break
				}
			}
			if ext {
				maximal = false
			}
		}
		if maximal {
			sort.Ints(q)
			cliques = append(cliques, q)
		}
	}
	return cliques
}
