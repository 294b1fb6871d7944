package features

import (
	"math/rand"
	"reflect"
	"testing"

	"marioh/internal/graph"
)

// TestAppendFeaturesMatchesFeatures: for every built-in featurizer,
// AppendFeatures leaves dst's prefix alone and appends exactly the vector
// Compute returns on a fresh Scratch, and so does Compute on a Scratch
// reused across cliques of different sizes, and on one that reads pairs
// off an attached graph.PairTable over the whole graph.
func TestAppendFeaturesMatchesFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.New(25)
	for i := 0; i < 25; i++ {
		for j := i + 1; j < 25; j++ {
			if rng.Float64() < 0.35 {
				g.AddWeight(i, j, 1+rng.Intn(4))
			}
		}
	}
	cliques := g.MaximalCliques(2)
	if len(cliques) < 5 {
		t.Fatalf("degenerate test graph: %d cliques", len(cliques))
	}
	for _, name := range Names() {
		f, _ := ByName(name)
		var reused, tabled Scratch
		var tab graph.PairTable
		tab.Build(g, nil)
		tabled.UseTable(&tab)
		for _, s := range []*Scratch{&reused, &tabled} {
			for _, q := range cliques {
				for _, maximal := range []bool{true, false} {
					var fresh Scratch
					want := Compute(f, &fresh, g, q, maximal)
					got := Compute(f, s, g, q, maximal)
					if len(want) != f.Dim() {
						t.Fatalf("%s: Compute returned %d dims, want %d", name, len(want), f.Dim())
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s on %v (maximal=%v, table=%v):\n reused %v\n  fresh %v",
							name, q, maximal, s == &tabled, got, want)
					}
					prefix := []float64{-1, -2}
					appended := f.AppendFeatures(prefix, s, g, q, maximal)
					if !reflect.DeepEqual(appended[:2], prefix) || !reflect.DeepEqual(appended[2:], want) {
						t.Fatalf("%s on %v (maximal=%v, table=%v): AppendFeatures onto %v = %v, want the prefix then %v",
							name, q, maximal, s == &tabled, prefix, appended, want)
					}
				}
			}
		}
	}
}

// TestComputeAllocationFree: after warm-up, neither Compute nor the
// sub-clique path through a Parent may allocate for the built-in
// featurizers, on a Scratch with no table attached, which rebuilds its
// own table over every clique it reads.
func TestComputeAllocationFree(t *testing.T) {
	g := graph.New(12)
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			g.AddWeight(i, j, 1+((i+j)%3))
		}
	}
	q := []int{0, 2, 4, 6, 8, 10}
	draws := [][]int{{0, 1}, {0, 2, 3}, {1, 2, 3, 5}}
	for _, name := range Names() {
		f, _ := ByName(name)
		var s Scratch
		var p Parent
		paths := map[string]func(){
			"Compute": func() { Compute(f, &s, g, q, true) },
			"ComputeSub": func() {
				p.Reset(q)
				for _, pos := range draws {
					ComputeSub(f, &s, g, &p, pos, false)
				}
			},
		}
		for path, run := range paths {
			run() // warm the buffers
			if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
				t.Fatalf("%s: %s allocates %.1f per call, want 0", name, path, allocs)
			}
		}
	}
}

// TestOneOffTableIsRebuiltPerRead: a Scratch with no table attached for a
// clique's graph reads the clique off a table built for that read alone,
// so after the clique's edges change, a second read on the same Scratch
// equals a fresh Scratch's. The same holds after the Scratch's own table
// was attached for another graph: the one-off read must not leave it
// attached over the clique.
func TestOneOffTableIsRebuiltPerRead(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.New(8)
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				g.AddWeight(i, j, 1+(i*j)%3)
			}
		}
		return g
	}
	q := []int{1, 2, 4, 6}
	for _, attachOther := range []bool{false, true} {
		g := build()
		var s Scratch
		if attachOther {
			other := build()
			s.Table().Build(other, nil)
			s.UseTable(s.Table())
		}
		first := append([]float64(nil), Compute(Marioh{}, &s, g, q, true)...)
		// Change pairs inside the clique and a common neighbour's edges,
		// so both ω and MHH of the clique's pairs move.
		g.AddWeight(1, 2, 2)
		g.AddWeight(4, 6, 1)
		g.AddWeight(1, 0, 3)
		g.AddWeight(2, 0, 3)
		got := Compute(Marioh{}, &s, g, q, true)
		var fresh Scratch
		want := Compute(Marioh{}, &fresh, g, q, true)
		if reflect.DeepEqual(first, want) {
			t.Fatal("weak fixture: the edge changes did not move the features")
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("attachOther=%v: second read %v, a fresh Scratch gives %v", attachOther, got, want)
		}
	}
}
