package core

import (
	"math/rand"
	"testing"

	"marioh/internal/datasets"
	"marioh/internal/eval"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

func TestFilterEmitsGuaranteedSize2(t *testing.T) {
	// H = {0,1}×3 ∪ {0,1,2}×1. In G: ω(0,1)=4, ω(0,2)=ω(1,2)=1.
	// MHH(0,1) = min(1,1) = 1, so r(0,1) = 3 size-2 hyperedges are provable.
	h := hypergraph.New(3)
	h.AddMult([]int{0, 1}, 3)
	h.Add([]int{0, 1, 2})
	g := h.Project()

	rec := hypergraph.New(3)
	emitted := Filter(g, rec)
	if emitted != 3 {
		t.Fatalf("emitted %d size-2 hyperedges, want 3", emitted)
	}
	if rec.Multiplicity([]int{0, 1}) != 3 {
		t.Fatalf("mult({0,1}) = %d, want 3", rec.Multiplicity([]int{0, 1}))
	}
	if g.Weight(0, 1) != 1 {
		t.Fatalf("residual ω(0,1) = %d, want 1", g.Weight(0, 1))
	}
}

func TestFilterRemovesEdgeWhenWeightHitsZero(t *testing.T) {
	// A single size-2 hyperedge: ω(0,1)=1, MHH=0, r=1 → edge removed.
	h := hypergraph.New(2)
	h.Add([]int{0, 1})
	g := h.Project()
	rec := hypergraph.New(2)
	Filter(g, rec)
	if g.NumEdges() != 0 {
		t.Fatal("edge should be fully consumed by filtering")
	}
	if rec.Multiplicity([]int{0, 1}) != 1 {
		t.Fatal("size-2 hyperedge not recovered")
	}
}

func TestFilterSoundness(t *testing.T) {
	// On random hypergraphs, filtering must never claim more size-2
	// hyperedges {u,v} than the ground truth contains (Lemma 2 soundness).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		h := hypergraph.New(10)
		nEdges := 3 + rng.Intn(12)
		for i := 0; i < nEdges; i++ {
			s := 2 + rng.Intn(3)
			seen := map[int]bool{}
			var nodes []int
			for len(nodes) < s {
				u := rng.Intn(10)
				if !seen[u] {
					seen[u] = true
					nodes = append(nodes, u)
				}
			}
			h.AddMult(nodes, 1+rng.Intn(3))
		}
		g := h.Project()
		rec := hypergraph.New(10)
		Filter(g, rec)
		rec.Each(func(nodes []int, mult int) {
			if len(nodes) != 2 {
				t.Fatalf("filter emitted non-size-2 hyperedge %v", nodes)
			}
			if truth := h.Multiplicity(nodes); mult > truth {
				t.Fatalf("trial %d: filter claimed %v×%d but truth has %d",
					trial, nodes, mult, truth)
			}
		})
	}
}

func TestIsMaximalClique(t *testing.T) {
	g := graph.New(4)
	g.AddWeight(0, 1, 1)
	g.AddWeight(0, 2, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(2, 3, 1)
	if !isMaximalClique(g, []int{0, 1, 2}) {
		t.Fatal("{0,1,2} is maximal")
	}
	if isMaximalClique(g, []int{0, 1}) {
		t.Fatal("{0,1} extends to {0,1,2}")
	}
	if !isMaximalClique(g, []int{2, 3}) {
		t.Fatal("{2,3} is maximal")
	}
}

func TestTrainProducesCalibratedModel(t *testing.T) {
	ds := datasets.MustByName("crime", 1)
	src := ds.Source.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 1})
	if m.Stats.Positives == 0 || m.Stats.Negatives == 0 {
		t.Fatalf("degenerate training set: %d pos, %d neg", m.Stats.Positives, m.Stats.Negatives)
	}
	// The model should, on average, score true source hyperedges higher
	// than random non-hyperedge subcliques.
	g := src.Project()
	posAvg, n := 0.0, 0
	src.Each(func(nodes []int, _ int) {
		posAvg += m.Score(g, nodes, isMaximalClique(g, nodes))
		n++
	})
	posAvg /= float64(n)
	if posAvg < 0.5 {
		t.Fatalf("positive score average %.3f < 0.5", posAvg)
	}
}

func TestReconstructPerfectOnDisjointHyperedges(t *testing.T) {
	// Disjoint hyperedges are unambiguous: reconstruction must be exact.
	h := hypergraph.New(12)
	h.Add([]int{0, 1, 2})
	h.Add([]int{3, 4})
	h.Add([]int{5, 6, 7, 8})
	h.Add([]int{9, 10})
	m := Train(h.Project(), h, TrainOptions{Seed: 2})
	res := Reconstruct(h.Project(), m, Options{Seed: 2})
	if got := eval.Jaccard(h, res.Hypergraph); got < 0.99 {
		t.Fatalf("Jaccard = %.3f, want 1.0; got %v", got, res.Hypergraph.UniqueEdges())
	}
}

func TestReconstructTerminatesAndConsumesAllEdges(t *testing.T) {
	ds := datasets.MustByName("hosts", 7)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 7})
	res := Reconstruct(tgt.Project(), m, Options{Seed: 7})
	if res.Hypergraph.NumUnique() == 0 {
		t.Fatal("empty reconstruction")
	}
	// The reconstruction's projection must exactly reproduce the input
	// weighted graph: MARIOH consumes every unit of edge multiplicity.
	want := tgt.Project()
	got := res.Hypergraph.Project()
	if got.TotalWeight() != want.TotalWeight() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("projection mismatch: got %d edges/%d weight, want %d/%d",
			got.NumEdges(), got.TotalWeight(), want.NumEdges(), want.TotalWeight())
	}
	for _, e := range want.Edges() {
		if got.Weight(e.U, e.V) != e.W {
			t.Fatalf("ω(%d,%d) = %d, want %d", e.U, e.V, got.Weight(e.U, e.V), e.W)
		}
	}
}

func TestReconstructAccuracyOnSparseDatasets(t *testing.T) {
	// Sparse, low-multiplicity datasets are where the paper reports near-
	// perfect recovery; our analogs must behave the same.
	for _, name := range []string{"crime", "directors"} {
		ds := datasets.MustByName(name, 11)
		src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
		m := Train(src.Project(), src, TrainOptions{Seed: 11})
		res := Reconstruct(tgt.Project(), m, Options{Seed: 11})
		if j := eval.Jaccard(tgt, res.Hypergraph); j < 0.8 {
			t.Errorf("%s: Jaccard = %.3f, want ≥ 0.8", name, j)
		}
	}
}

func TestReconstructDeterministic(t *testing.T) {
	ds := datasets.MustByName("crime", 5)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 5})
	a := Reconstruct(tgt.Project(), m, Options{Seed: 9})
	b := Reconstruct(tgt.Project(), m, Options{Seed: 9})
	if !a.Hypergraph.Equal(b.Hypergraph) {
		t.Fatal("same seed produced different reconstructions")
	}
}

func TestVariantsRun(t *testing.T) {
	ds := datasets.MustByName("crime", 13)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 13})
	for _, opt := range []Options{
		{DisableFiltering: true, Seed: 1},
		{DisableBidirectional: true, Seed: 1},
		{DisableFiltering: true, DisableBidirectional: true, Seed: 1},
	} {
		res := Reconstruct(tgt.Project(), m, opt)
		if res.Hypergraph.NumUnique() == 0 {
			t.Fatalf("variant %+v produced empty reconstruction", opt)
		}
	}
}

func TestScoreCliquesParallelMatchesSequential(t *testing.T) {
	// Force the parallel path with > fanoutCliques cliques and
	// compare against direct sequential scoring.
	ds := datasets.MustByName("eu", 1)
	src := ds.Source.Reduced()
	g := src.Project()
	m := Train(g, src, TrainOptions{Seed: 1, Epochs: 10})
	cliques := g.MaximalCliquesLimit(2, 1000)
	if len(cliques) <= fanoutCliques {
		t.Skipf("only %d cliques; cannot exercise parallel path", len(cliques))
	}
	got := ScoreCliques(g, m, cliques)
	for i, q := range cliques {
		if want := m.Score(g, q, true); got[i] != want {
			t.Fatalf("clique %d: parallel %v != sequential %v", i, got[i], want)
		}
	}
}

func TestSemiSupervisedTrainUsesFraction(t *testing.T) {
	ds := datasets.MustByName("hosts", 3)
	src := ds.Source.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 3, SupervisionRatio: 0.2})
	want := int(float64(src.NumUnique()) * 0.2)
	if m.Stats.Positives != want {
		t.Fatalf("positives = %d, want %d", m.Stats.Positives, want)
	}
}

func TestBidirectionalSearchRespectsConsumedEdges(t *testing.T) {
	// Two overlapping triangles sharing an edge with ω=1: after the first
	// is accepted, the second no longer exists (Fig. 3's (A)/(B) case).
	h := hypergraph.New(4)
	h.Add([]int{0, 1, 2})
	g := h.Project()
	g.AddWeight(1, 3, 1)
	g.AddWeight(2, 3, 1) // {1,2,3} is also a clique, sharing edge {1,2}
	m := Train(h.Project(), h, TrainOptions{Seed: 1})
	rec := hypergraph.New(4)
	BidirectionalSearch(g, m, SearchOptions{Theta: 0, R: 100, Seed: 1}, rec)
	// Whichever triangle is taken first, the shared edge {1,2} can only be
	// consumed once in total across size-3 acceptances.
	if rec.Contains([]int{0, 1, 2}) && rec.Contains([]int{1, 2, 3}) {
		t.Fatal("both overlapping triangles accepted despite shared ω=1 edge")
	}
}

func TestMultiplicityPreservedReconstruction(t *testing.T) {
	// A duplicated triangle: ω=2 on every edge. MARIOH should be able to
	// emit the triangle twice across rounds.
	h := hypergraph.New(3)
	h.AddMult([]int{0, 1, 2}, 2)
	m := Train(h.Project(), h, TrainOptions{Seed: 4})
	res := Reconstruct(h.Project(), m, Options{Seed: 4})
	if got := res.Hypergraph.Multiplicity([]int{0, 1, 2}); got != 2 {
		t.Fatalf("multiplicity = %d, want 2 (rec=%v)", got, res.Hypergraph.EdgesWithMult())
	}
}
