package hypergraph

// FilterEdges returns a new hypergraph containing the hyperedges for which
// keep returns true, with multiplicities preserved. The node universe is
// unchanged.
func (h *Hypergraph) FilterEdges(keep func(nodes []int, mult int) bool) *Hypergraph {
	out := New(h.numNodes)
	h.Each(func(nodes []int, mult int) {
		if keep(nodes, mult) {
			out.AddMult(nodes, mult)
		}
	})
	return out
}

// Ego returns the sub-hypergraph of hyperedges containing the given node —
// the view used by the paper's Fig. 2 case study (an author and the papers
// they co-wrote).
func (h *Hypergraph) Ego(node int) *Hypergraph {
	return h.FilterEdges(func(nodes []int, _ int) bool {
		for _, u := range nodes {
			if u == node {
				return true
			}
		}
		return false
	})
}
