package hypergraph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := [][]int{{0}, {1, 2}, {5, 3, 9}, {0, 100, 10000}, {7, 7, 7}}
	for _, c := range cases {
		k := Key(c)
		got := DecodeKey(k)
		want := dedupSorted(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Key round trip %v: got %v want %v", c, got, want)
		}
	}
}

func dedupSorted(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	out := c[:0]
	for i, v := range c {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return append([]int(nil), out...)
}

func TestKeySetSemantics(t *testing.T) {
	if Key([]int{3, 1, 2}) != Key([]int{2, 3, 1}) {
		t.Fatal("Key should be order independent")
	}
	if Key([]int{1, 1, 2}) != Key([]int{1, 2}) {
		t.Fatal("Key should ignore duplicates")
	}
	if Key([]int{1, 2}) == Key([]int{1, 3}) {
		t.Fatal("distinct sets must have distinct keys")
	}
}

func TestKeySortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted input")
		}
	}()
	KeySorted([]int{2, 1})
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(a, b []uint8) bool {
		ai := toInts(a)
		bi := toInts(b)
		if len(ai) == 0 || len(bi) == 0 {
			return true
		}
		ka, kb := Key(ai), Key(bi)
		sameSet := reflect.DeepEqual(dedupSorted(ai), dedupSorted(bi))
		return (ka == kb) == sameSet
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func toInts(a []uint8) []int {
	out := make([]int, len(a))
	for i, v := range a {
		out[i] = int(v)
	}
	return out
}

func TestAddAndMultiplicity(t *testing.T) {
	h := New(5)
	h.Add([]int{0, 1})
	h.Add([]int{1, 0}) // same set
	h.AddMult([]int{1, 2, 3}, 4)
	if h.NumUnique() != 2 {
		t.Fatalf("NumUnique = %d, want 2", h.NumUnique())
	}
	if h.NumTotal() != 6 {
		t.Fatalf("NumTotal = %d, want 6", h.NumTotal())
	}
	if h.Multiplicity([]int{0, 1}) != 2 {
		t.Fatalf("mult({0,1}) = %d, want 2", h.Multiplicity([]int{0, 1}))
	}
	if h.Multiplicity([]int{3, 2, 1}) != 4 {
		t.Fatalf("mult({1,2,3}) = %d, want 4", h.Multiplicity([]int{1, 2, 3}))
	}
	if h.Multiplicity([]int{0, 2}) != 0 {
		t.Fatal("absent edge should have multiplicity 0")
	}
	if h.SumSizes() != 2*2+3*4 {
		t.Fatalf("SumSizes = %d, want 16", h.SumSizes())
	}
	if got := h.AvgMultiplicity(); got != 3 {
		t.Fatalf("AvgMultiplicity = %v, want 3", got)
	}
}

func TestAddPanics(t *testing.T) {
	h := New(3)
	mustPanic(t, func() { h.Add([]int{1}) })
	mustPanic(t, func() { h.Add([]int{2, 2}) })
	mustPanic(t, func() { h.AddMult([]int{0, 1}, 0) })
	mustPanic(t, func() { h.Add([]int{-1, 2}) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestNodeUniverseGrows(t *testing.T) {
	h := New(2)
	h.Add([]int{1, 9})
	if h.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", h.NumNodes())
	}
}

func TestReduced(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 5)
	h.AddMult([]int{1, 2, 3}, 2)
	r := h.Reduced()
	if r.NumUnique() != 2 || r.NumTotal() != 2 {
		t.Fatalf("Reduced: unique=%d total=%d", r.NumUnique(), r.NumTotal())
	}
	if h.NumTotal() != 7 {
		t.Fatal("Reduced mutated the original")
	}
}

func TestProject(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1, 2}, 2) // each pair gets ω += 2
	h.Add([]int{1, 2})           // ω(1,2) += 1
	g := h.Project()
	if g.Weight(0, 1) != 2 || g.Weight(0, 2) != 2 {
		t.Fatalf("ω(0,1)=%d ω(0,2)=%d, want 2", g.Weight(0, 1), g.Weight(0, 2))
	}
	if g.Weight(1, 2) != 3 {
		t.Fatalf("ω(1,2) = %d, want 3", g.Weight(1, 2))
	}
	if g.NumEdges() != 3 {
		t.Fatalf("projection has %d edges, want 3", g.NumEdges())
	}
}

func TestCloneAndEqual(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 2)
	h.Add([]int{0, 2, 3})
	c := h.Clone()
	if !h.Equal(c) || !c.Equal(h) {
		t.Fatal("clone not equal")
	}
	c.Add([]int{0, 1})
	if h.Equal(c) {
		t.Fatal("multiplicity change not detected")
	}
	d := h.Clone()
	d.Add([]int{1, 3})
	if h.Equal(d) {
		t.Fatal("extra edge not detected")
	}
}

func TestNodeDegreesAndCoveredNodes(t *testing.T) {
	h := New(5)
	h.AddMult([]int{0, 1}, 3)
	h.Add([]int{1, 2, 3})
	deg := h.NodeDegrees()
	want := []int{3, 4, 1, 1, 0}
	if !reflect.DeepEqual(deg, want) {
		t.Fatalf("NodeDegrees = %v, want %v", deg, want)
	}
	if h.CoveredNodes() != 4 {
		t.Fatalf("CoveredNodes = %d, want 4", h.CoveredNodes())
	}
}

func TestEdgeSizes(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1}, 2)
	h.Add([]int{1, 2, 3})
	sizes := h.EdgeSizes()
	sort.Ints(sizes)
	if !reflect.DeepEqual(sizes, []int{2, 2, 3}) {
		t.Fatalf("EdgeSizes = %v", sizes)
	}
}

func TestUniqueEdgesInsertionOrder(t *testing.T) {
	h := New(6)
	h.Add([]int{4, 5})
	h.Add([]int{0, 1})
	h.Add([]int{4, 5})
	edges := h.UniqueEdges()
	if !reflect.DeepEqual(edges, [][]int{{4, 5}, {0, 1}}) {
		t.Fatalf("UniqueEdges = %v", edges)
	}
}

// TestQuickProjectionWeights: for any random hypergraph, ω(u,v) equals the
// total multiplicity of hyperedges containing both u and v.
func TestQuickProjectionWeights(t *testing.T) {
	f := func(edges [][]uint8) bool {
		h := New(12)
		type em struct {
			nodes []int
		}
		var kept [][]int
		for _, e := range edges {
			nodes := dedupSorted(toInts(e))
			for i := range nodes {
				nodes[i] %= 12
			}
			nodes = dedupSorted(nodes)
			if len(nodes) < 2 {
				continue
			}
			h.Add(nodes)
			kept = append(kept, nodes)
		}
		if len(kept) == 0 {
			return true
		}
		g := h.Project()
		for u := 0; u < 12; u++ {
			for v := u + 1; v < 12; v++ {
				want := 0
				for _, e := range kept {
					if containsInt(e, u) && containsInt(e, v) {
						want++
					}
				}
				if g.Weight(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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

func TestScalarProperties(t *testing.T) {
	h := New(4)
	h.Add([]int{0, 1, 2}) // a closed triangle
	h.Add([]int{2, 3})
	p := h.Scalars()
	if p.NumNodes != 4 || p.NumHyperedges != 2 {
		t.Fatalf("nodes=%v hyperedges=%v", p.NumNodes, p.NumHyperedges)
	}
	if p.AvgEdgeSize != 2.5 {
		t.Fatalf("AvgEdgeSize = %v, want 2.5", p.AvgEdgeSize)
	}
	// degrees: 1,1,2,1 → avg 5/4
	if p.AvgNodeDegree != 1.25 {
		t.Fatalf("AvgNodeDegree = %v, want 1.25", p.AvgNodeDegree)
	}
	// The single projected triangle {0,1,2} is covered by the hyperedge.
	if p.SimplicialClosureRatio != 1 {
		t.Fatalf("SimplicialClosureRatio = %v, want 1", p.SimplicialClosureRatio)
	}
	if p.Density != 0.5 {
		t.Fatalf("Density = %v, want 0.5", p.Density)
	}
	if p.Overlapness != 1.25 {
		t.Fatalf("Overlapness = %v, want 1.25", p.Overlapness)
	}
}

func TestSimplicialClosureOpenTriangle(t *testing.T) {
	// Three pairwise hyperedges forming an open triangle.
	h := New(3)
	h.Add([]int{0, 1})
	h.Add([]int{1, 2})
	h.Add([]int{0, 2})
	if r := h.simplicialClosureRatio(); r != 0 {
		t.Fatalf("open triangle closure = %v, want 0", r)
	}
}

func TestDistributions(t *testing.T) {
	h := New(4)
	h.AddMult([]int{0, 1, 2}, 2)
	h.Add([]int{0, 3})
	if got := h.NodeDegreeDist(); len(got) != 4 {
		t.Fatalf("NodeDegreeDist size %d, want 4", len(got))
	}
	pd := h.NodePairDegreeDist()
	if len(pd) != 4 { // pairs: 01,02,12 (ω=2 each) and 03 (ω=1)
		t.Fatalf("NodePairDegreeDist size %d, want 4", len(pd))
	}
	td := h.NodeTripleDegreeDist()
	if len(td) != 1 || td[0] != 2 {
		t.Fatalf("NodeTripleDegreeDist = %v, want [2]", td)
	}
	hd := h.HomogeneityDist()
	if len(hd) != 2 {
		t.Fatalf("HomogeneityDist size %d, want 2", len(hd))
	}
}

func TestSingularValues(t *testing.T) {
	// A single hyperedge {0,1}: S = 1_e 1_eᵀ has eigenvalues {2, 0}, so the
	// top singular value is √2.
	h := New(2)
	h.Add([]int{0, 1})
	sv := h.SingularValues(2)
	if len(sv) < 1 {
		t.Fatal("no singular values returned")
	}
	if d := sv[0] - 1.4142135; d > 1e-3 || d < -1e-3 {
		t.Fatalf("top singular value = %v, want √2", sv[0])
	}
	// Values must be non-increasing.
	for i := 1; i < len(sv); i++ {
		if sv[i] > sv[i-1]+1e-9 {
			t.Fatalf("singular values not sorted: %v", sv)
		}
	}
}

// TestUnionMatchesAddMult: Union leaves exactly what AddMult of every
// hyperedge of each input, in turn, leaves on New(n): the same keys in
// the same insertion order, multiplicities, node count and totals. The
// inputs here include nil, an empty hypergraph, a hyperedge that two
// inputs share, and node ids past n. The union's multiplicities are its
// own: adding to it leaves its inputs as they were.
func TestUnionMatchesAddMult(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var hs []*Hypergraph
	for i := 0; i < 6; i++ {
		h := New(10)
		for j := 0; j < 30; j++ {
			k := 2 + rng.Intn(4)
			nodes := make([]int, k)
			for a := range nodes {
				nodes[a] = 10*i + rng.Intn(12)
			}
			if len(canonical(nodes)) >= 2 {
				h.AddMult(nodes, 1+rng.Intn(3))
			}
		}
		hs = append(hs, h)
	}
	hs[2].AddMult([]int{3, 1}, 2) // shared with the inputs that hold {1, 3}
	hs[4].Add([]int{1, 3})
	hs = append(hs, nil, New(5))
	for _, n := range []int{0, 40, 200} {
		want := New(n)
		for _, h := range hs {
			if h != nil {
				h.Each(want.AddMult)
			}
		}
		got := Union(n, hs)
		if !reflect.DeepEqual(got.Keys(), want.Keys()) || !reflect.DeepEqual(got.EdgesWithMult(), want.EdgesWithMult()) {
			t.Fatalf("n=%d: union has %d keys, want AddMult's %d in its order with its multiplicities", n, got.NumUnique(), want.NumUnique())
		}
		if got.NumNodes() != want.NumNodes() || got.NumTotal() != want.NumTotal() || got.SumSizes() != want.SumSizes() {
			t.Fatalf("n=%d: union has %d nodes, %d total, %d incidences; want %d, %d, %d", n,
				got.NumNodes(), got.NumTotal(), got.SumSizes(), want.NumNodes(), want.NumTotal(), want.SumSizes())
		}
		before := hs[4].Multiplicity([]int{1, 3})
		got.AddMult([]int{1, 3}, 5)
		if hs[4].Multiplicity([]int{1, 3}) != before || hs[2].Multiplicity([]int{1, 3}) < 2 {
			t.Fatalf("n=%d: adding to the union changed an input's multiplicity", n)
		}
	}
}
