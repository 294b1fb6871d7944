package graph

import "math"

// PairTable holds MHH(u, v) = SumMinCommonWeight(u, v) for every edge
// {u, v} among a set of covered nodes of one graph, in rows parallel to
// the adjacency arrays: the row of a covered node u has one entry per
// neighbor, at that neighbor's position in u's sorted neighbor list.
// Build fills it in one pass; Pair and AppendPairs then read a pair's ω
// and MHH with one binary search, so a round that scores many cliques
// sharing pairs computes each edge's MHH once, and a table built over one
// clique's nodes serves a one-off read of that clique.
//
// A table stays exact while no edge incident to a covered node changes;
// edges elsewhere in the graph may change freely. Readers may share a
// built table across goroutines; Build must not run concurrently with
// them. The node-indexed arrays are kept across builds, and a build's
// cleanup is proportional to the nodes it covers, so one table can be
// rebuilt per round or per component without touching the whole node
// set. The zero value is ready to Build.
type PairTable struct {
	g *Graph
	// off maps a node to the start of its row in mhh, or -1 when the
	// node is not covered. Node-indexed; reset through nodes.
	off   []int
	mark  []int32 // ω(u, z) of the node u being swept, 0 elsewhere
	nodes []int32 // the covered nodes, in build order
	// mhh holds the rows, concatenated. A sum past int32, which only
	// weights near the int32 limit reach, is stored as -1 and left to
	// the merge.
	mhh []int32
}

// Build makes t cover the given nodes of g, or every node of g when
// nodes is nil, replacing what t covered before. nodes may repeat.
func (t *PairTable) Build(g *Graph, nodes []int) {
	t.release()
	t.g = g
	if n := len(g.nbrs); len(t.off) < n {
		t.off = make([]int, n)
		for i := range t.off {
			t.off[i] = -1
		}
		t.mark = make([]int32, n)
	}
	want := len(g.nbrs)
	if nodes != nil {
		want = min(want, len(nodes))
	}
	if cap(t.nodes) < want {
		t.nodes = make([]int32, 0, want)
	}
	total := 0
	cover := func(u int) {
		if t.off[u] < 0 {
			t.off[u] = total
			t.nodes = append(t.nodes, int32(u))
			total += len(g.nbrs[u])
		}
	}
	if nodes == nil {
		for u := range g.nbrs {
			cover(u)
		}
	} else {
		for _, u := range nodes {
			g.check(u)
			cover(u)
		}
	}
	if cap(t.mhh) < total {
		t.mhh = make([]int32, total)
	}
	t.mhh = t.mhh[:total]
	// Each covered edge is summed once, by the endpoint with the longer
	// neighbor list (ties: the smaller id): its neighbors' weights are
	// marked, and the other endpoint's shorter list is walked against
	// them. Only min(deg u, deg v) entries are read per edge.
	for _, u32 := range t.nodes {
		u := int(u32)
		nu, wu := g.nbrs[u], g.wts[u]
		for k, z := range nu {
			t.mark[z] = wu[k]
		}
		for k, v32 := range nu {
			v := int(v32)
			nv := g.nbrs[v]
			if t.off[v] < 0 || len(nv) > len(nu) || (len(nv) == len(nu) && v < u) {
				continue
			}
			wv := g.wts[v]
			s, at := 0, 0
			for j, z := range nv {
				if wz := t.mark[z]; wz > 0 {
					if wv[j] < wz {
						wz = wv[j]
					}
					s += int(wz)
				} else if int(z) == u {
					at = j
				}
			}
			h := int32(-1)
			if s <= math.MaxInt32 {
				h = int32(s)
			}
			t.mhh[t.off[u]+k] = h
			t.mhh[t.off[v]+at] = h
		}
		for _, z := range nu {
			t.mark[z] = 0
		}
	}
}

// release uncovers every node of the last build.
func (t *PairTable) release() {
	for _, u := range t.nodes {
		t.off[u] = -1
	}
	t.nodes = t.nodes[:0]
	t.g = nil
}

// Graph returns the graph t was last built over, or nil.
func (t *PairTable) Graph() *Graph { return t.g }

// covers reports whether u is a covered node of the last build.
func (t *PairTable) covers(u int) bool {
	return u >= 0 && u < len(t.off) && t.off[u] >= 0
}

// Pair returns ω(u, v) and MHH(u, v) on t's graph. An edge between two
// covered nodes is read off its row. Any other pair — one that is not an
// edge (ω = 0, for instance a pair consumed after its clique was
// enumerated) or one with an uncovered endpoint — gets Weight and the
// SumMinCommonWeight merge, so the result always equals those two.
func (t *PairTable) Pair(u, v int) (omega, mhh int) {
	g := t.g
	if t.covers(u) && t.covers(v) {
		a, b := u, v
		if len(g.nbrs[b]) < len(g.nbrs[a]) {
			a, b = b, a
		}
		if k, ok := g.searchNbr(a, b); ok {
			if h := t.mhh[t.off[a]+k]; h >= 0 {
				return int(g.wts[a][k]), int(h)
			}
		}
	}
	return g.Weight(u, v), g.SumMinCommonWeight(u, v)
}

// AppendPairs appends ω and MHH of every pair (q[i], q[j]), i < j, of q
// to omega and mhh, in the order (0,1), (0,2), …, (1,2), … that PairIndex
// numbers, and returns the extended slices.
func (t *PairTable) AppendPairs(omega, mhh []int, q []int) ([]int, []int) {
	for i, u := range q {
		for _, v := range q[i+1:] {
			w, h := t.Pair(u, v)
			omega = append(omega, w)
			mhh = append(mhh, h)
		}
	}
	return omega, mhh
}

// PairIndex returns the position of pair (i, j), 0 ≤ i < j < m, in the
// pair order of AppendPairs for an m-node set.
func PairIndex(m, i, j int) int {
	return i*(2*m-i-1)/2 + j - i - 1
}
