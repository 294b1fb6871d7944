package core

import (
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// Filter is MARIOH's theoretically-guaranteed filtering step (Algorithm 2).
//
// For every edge (u, v) of g it computes MHH(u, v) — the maximum possible
// number of size-≥3 hyperedges containing both endpoints (Lemma 1) — and
// the residual multiplicity r(u,v) = ω(u,v) − MHH(u,v). Whenever r > 0,
// Lemma 2 guarantees the original hypergraph contains the size-2 hyperedge
// {u, v} at least r times, so {u, v} is added to rec with multiplicity r
// and ω(u,v) is decreased by r, removing the edge entirely when it reaches
// zero.
//
// All MHH values are read off one graph.PairTable over the input graph —
// the kernel the search rounds read their features off — built before any
// weight is modified, matching Algorithm 2, which derives every bound from
// the original ω. Filter mutates g in place (callers clone first) and
// returns the number of size-2 hyperedge occurrences emitted.
func Filter(g *graph.Graph, rec *hypergraph.Hypergraph) int {
	return filter(g, rec, new(graph.PairTable))
}

// filter is Filter with a caller-owned table, which it rebuilds over g.
func filter(g *graph.Graph, rec *hypergraph.Hypergraph, t *graph.PairTable) int {
	type resid struct {
		u, v, r int
	}
	t.Build(g, nil)
	var found []resid
	for _, e := range g.Edges() {
		_, mhh := t.Pair(e.U, e.V)
		if r := e.W - mhh; r > 0 {
			found = append(found, resid{e.U, e.V, r})
		}
	}
	emitted := 0
	for _, f := range found {
		rec.AddMult([]int{f.u, f.v}, f.r)
		g.AddWeight(f.u, f.v, -f.r)
		emitted += f.r
	}
	return emitted
}
