package graph

// Density returns the edge density |E| / C(|V|, 2) (0 for graphs with
// fewer than two nodes).
func (g *Graph) Density() float64 {
	n := len(g.nbrs)
	if n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(n) * float64(n-1) / 2)
}
