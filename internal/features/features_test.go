package features

import (
	"math"
	"testing"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

func testGraph() *graph.Graph {
	// Triangle {0,1,2} with ω=2 on every edge plus pendant 3 on node 0.
	h := hypergraph.New(4)
	h.AddMult([]int{0, 1, 2}, 2)
	h.Add([]int{0, 3})
	return h.Project()
}

// vec is f's vector for clique q of g, off a fresh Scratch.
func vec(f Featurizer, g *graph.Graph, q []int, maximal bool) []float64 {
	var s Scratch
	return Compute(f, &s, g, q, maximal)
}

func TestDims(t *testing.T) {
	g := testGraph()
	for _, f := range []Featurizer{Marioh{}, ShyreCount{}, ShyreMotif{}} {
		got := vec(f, g, []int{0, 1, 2}, true)
		if len(got) != f.Dim() {
			t.Fatalf("%s: len(features) = %d, Dim() = %d", f.Name(), len(got), f.Dim())
		}
	}
}

func TestMariohFeatureValues(t *testing.T) {
	g := testGraph()
	f := vec(Marioh{}, g, []int{0, 1, 2}, true)
	// Node weighted degrees: 0 → 2+2+1=5, 1 → 4, 2 → 4.
	// agg(sum, mean, min, max, std) of [5 4 4]:
	if f[0] != 13 {
		t.Fatalf("node sum = %v, want 13", f[0])
	}
	if math.Abs(f[1]-13.0/3) > 1e-12 {
		t.Fatalf("node mean = %v", f[1])
	}
	if f[2] != 4 || f[3] != 5 {
		t.Fatalf("node min/max = %v/%v", f[2], f[3])
	}
	// Edge ω: all three edges have ω=2 → sum 6, std 0.
	if f[5] != 6 || f[9] != 0 {
		t.Fatalf("edge ω agg = %v (sum), %v (std)", f[5], f[9])
	}
	// MHH(0,1) = min(ω02, ω12) = 2, same for all edges of the triangle.
	if f[10] != 6 {
		t.Fatalf("MHH sum = %v, want 6", f[10])
	}
	// MHH/ω = 1 for every edge.
	if f[15] != 3 || f[16] != 1 {
		t.Fatalf("ratio sum/mean = %v/%v", f[15], f[16])
	}
	// Clique-level: size 3, cut ratio internal/external = 6/(13−6),
	// maximal flag 1.
	if f[20] != 3 {
		t.Fatalf("size = %v", f[20])
	}
	if math.Abs(f[21]-6.0/7) > 1e-12 {
		t.Fatalf("cut ratio = %v, want 6/7", f[21])
	}
	if f[22] != 1 {
		t.Fatalf("maximal flag = %v", f[22])
	}
}

func TestMaximalFlagPropagates(t *testing.T) {
	g := testGraph()
	a := vec(Marioh{}, g, []int{0, 1, 2}, true)
	b := vec(Marioh{}, g, []int{0, 1, 2}, false)
	if a[22] != 1 || b[22] != 0 {
		t.Fatal("maximal indicator not set from the argument")
	}
}

func TestShyreCountIgnoresMultiplicity(t *testing.T) {
	// Two graphs with identical topology but different weights must give
	// identical SHyRe-Count features (it is multiplicity-blind).
	h1 := hypergraph.New(3)
	h1.Add([]int{0, 1, 2})
	g1 := h1.Project()
	h2 := hypergraph.New(3)
	h2.AddMult([]int{0, 1, 2}, 7)
	g2 := h2.Project()
	a := vec(ShyreCount{}, g1, []int{0, 1, 2}, true)
	b := vec(ShyreCount{}, g2, []int{0, 1, 2}, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// While MARIOH features must differ.
	am := vec(Marioh{}, g1, []int{0, 1, 2}, true)
	bm := vec(Marioh{}, g2, []int{0, 1, 2}, true)
	same := true
	for i := range am {
		if am[i] != bm[i] {
			same = false
		}
	}
	if same {
		t.Fatal("MARIOH features must be multiplicity sensitive")
	}
}

func TestShyreMotifExtendsCount(t *testing.T) {
	g := testGraph()
	c := vec(ShyreCount{}, g, []int{0, 1}, false)
	m := vec(ShyreMotif{}, g, []int{0, 1}, false)
	if len(m) != len(c)+5 {
		t.Fatalf("motif dims = %d, want count+5 = %d", len(m), len(c)+5)
	}
	for i := range c {
		if m[i] != c[i] {
			t.Fatalf("motif prefix differs at %d", i)
		}
	}
}

func TestSize2CliqueFeatures(t *testing.T) {
	g := testGraph()
	f := vec(Marioh{}, g, []int{0, 3}, true)
	if len(f) != 23 {
		t.Fatalf("dim = %d", len(f))
	}
	// ω(0,3) = 1, MHH = 0 (no common neighbors).
	if f[5] != 1 || f[10] != 0 {
		t.Fatalf("size-2 edge features: ω sum = %v, MHH sum = %v", f[5], f[10])
	}
}

func TestMariohNoMHHDropsMHHFamilies(t *testing.T) {
	g := testGraph()
	f := vec(MariohNoMHH{}, g, []int{0, 1, 2}, true)
	if len(f) != (MariohNoMHH{}).Dim() {
		t.Fatalf("dim mismatch: %d", len(f))
	}
	full := vec(Marioh{}, g, []int{0, 1, 2}, true)
	// Node aggregates and ω aggregates must agree with the full set.
	for i := 0; i < 10; i++ {
		if f[i] != full[i] {
			t.Fatalf("shared prefix differs at %d: %v vs %v", i, f[i], full[i])
		}
	}
	// Clique-level scalars must agree with the full set's tail.
	for i := 0; i < 3; i++ {
		if f[10+i] != full[20+i] {
			t.Fatalf("clique-level feature %d differs", i)
		}
	}
}

func TestByName(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names = %v, want the four built-ins", names)
	}
	for i, name := range []string{"marioh", "marioh-nomhh", "shyre-count", "shyre-motif"} {
		f, ok := ByName(name)
		if !ok || f.Name() != name || names[i] != name {
			t.Fatalf("ByName(%q) failed, or Names()[%d] = %q", name, i, names[i])
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name must fail")
	}
}

func TestAggStatsEmpty(t *testing.T) {
	out := aggStats(nil, nil)
	if len(out) != 5 {
		t.Fatalf("empty agg len = %d", len(out))
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty agg must be zeros")
		}
	}
}
