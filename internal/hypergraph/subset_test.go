package hypergraph

import "testing"

func subsetFixture() *Hypergraph {
	h := New(10)
	h.AddMult([]int{0, 1}, 2)
	h.Add([]int{1, 2, 3})
	h.Add([]int{4, 5, 6, 7})
	return h
}

func TestFilterEdges(t *testing.T) {
	h := subsetFixture()
	big := h.FilterEdges(func(nodes []int, _ int) bool { return len(nodes) >= 3 })
	if big.NumUnique() != 2 {
		t.Fatalf("filtered unique = %d", big.NumUnique())
	}
	if big.Contains([]int{0, 1}) {
		t.Fatal("size-2 edge survived the filter")
	}
	// Multiplicities preserved.
	dup := h.FilterEdges(func(_ []int, mult int) bool { return mult > 1 })
	if dup.Multiplicity([]int{0, 1}) != 2 {
		t.Fatal("multiplicity lost")
	}
}

func TestEgo(t *testing.T) {
	h := subsetFixture()
	ego := h.Ego(1)
	if ego.NumUnique() != 2 {
		t.Fatalf("ego unique = %d, want 2", ego.NumUnique())
	}
	if !ego.Contains([]int{0, 1}) || !ego.Contains([]int{1, 2, 3}) {
		t.Fatalf("ego edges wrong: %v", ego.UniqueEdges())
	}
	if ego.Contains([]int{4, 5, 6, 7}) {
		t.Fatal("non-incident edge in ego")
	}
}
