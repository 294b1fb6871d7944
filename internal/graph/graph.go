// Package graph implements the weighted undirected graph substrate used by
// every reconstruction method in this repository.
//
// A Graph stores, for each unordered node pair {u, v}, an integer weight
// ω(u, v) ≥ 1 called the edge multiplicity: the number of hyperedges of the
// original hypergraph that contain both u and v (see the clique-expansion
// projection in internal/hypergraph). The package provides the primitives
// the MARIOH paper relies on: weighted adjacency with cheap edge updates,
// neighbor intersection, degeneracy ordering, Bron–Kerbosch maximal-clique
// enumeration with pivoting, and fixed-size clique enumeration for the
// CFinder baseline.
//
// # Adjacency engine
//
// Adjacency is stored as per-node sorted neighbor arrays with parallel
// weight arrays (a mutable CSR layout): Weight and HasEdge binary-search
// the shorter endpoint list, and the intersection primitives
// (CommonNeighbors, CountCommonNeighbors, SumMinCommonWeight) run a linear
// merge over two sorted arrays instead of probing hash maps. Nodes whose
// degree reaches bitsetDegThreshold additionally carry a dense bitset row
// over the whole node set, giving O(1) HasEdge against hubs; rows are
// created and dropped incrementally by AddWeight/RemoveEdge (with 2×
// hysteresis to avoid thrashing), so the residual-graph mutation pattern of
// the bidirectional search keeps its fast paths. Weighted degrees are
// cached and maintained on every update. All iteration orders are
// ascending by node id, which makes every algorithm in this package
// deterministic.
//
// # Pair statistics
//
// MARIOH's classifier and its filter read two integers per node pair: ω
// and the MHH bound SumMinCommonWeight. A PairTable computes MHH for
// every edge among a set of covered nodes in one pass, in rows parallel
// to the adjacency arrays, and reads a pair's ω and MHH with one binary
// search, so a caller that reads many cliques of an unchanged graph — a
// search round, training-example extraction, the filter — computes each
// edge's MHH once. It is the one kernel for a clique's pairs: a one-off
// read builds a table over the clique alone. Pairs it does not hold fall
// back to Weight and the SumMinCommonWeight merge, which are also the
// definition the table is tested against.
package graph

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Edge is a weighted undirected edge with U < V.
type Edge struct {
	U, V int
	W    int
}

// bitsetDegThreshold is the degree at which a node gets a dense bitset row:
// max(64, n/64). Below 64 neighbors a binary search beats the cache miss of
// a dense row lookup; above n/64 the row (n/8 bytes) costs no more than the
// sorted neighbor array it shadows, so hubs get O(1) membership tests.
func bitsetDegThreshold(n int) int {
	t := n / 64
	if t < 64 {
		t = 64
	}
	return t
}

// Graph is a weighted undirected graph over nodes 0..NumNodes()-1.
// Self-loops are forbidden. A zero-weight pair is, by definition, a
// non-edge: AddWeight removes the pair once its weight reaches zero.
type Graph struct {
	nbrs [][]int32  // sorted neighbor ids per node
	wts  [][]int32  // wts[u][i] = ω(u, nbrs[u][i])
	bits [][]uint64 // dense membership row for high-degree nodes, else nil
	wdeg []int      // cached Σ_v ω(u, v)

	// numEdges and totalWeight are the only cross-component state AddWeight
	// touches: every other write lands in the rows of the two endpoints,
	// which the parallel per-component search mutates from one goroutine per
	// component. Keeping the global counters atomic makes that concurrent
	// mutation of edge-disjoint components race-free, and their final values
	// stay deterministic because counter updates commute.
	numEdges    atomic.Int64
	totalWeight atomic.Int64
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		nbrs: make([][]int32, n),
		wts:  make([][]int32, n),
		bits: make([][]uint64, n),
		wdeg: make([]int, n),
	}
}

// NumNodes returns the number of nodes (isolated nodes included).
func (g *Graph) NumNodes() int { return len(g.nbrs) }

// NumEdges returns the number of node pairs with positive weight.
func (g *Graph) NumEdges() int { return int(g.numEdges.Load()) }

// TotalWeight returns the sum of ω(u, v) over all edges.
func (g *Graph) TotalWeight() int { return int(g.totalWeight.Load()) }

// EnsureNodes grows the node set so that it contains at least n nodes.
// Existing bitset rows are widened to cover the new (edgeless) nodes.
func (g *Graph) EnsureNodes(n int) {
	if n <= len(g.nbrs) {
		return
	}
	for len(g.nbrs) < n {
		g.nbrs = append(g.nbrs, nil)
		g.wts = append(g.wts, nil)
		g.bits = append(g.bits, nil)
		g.wdeg = append(g.wdeg, 0)
	}
	words := bitsetWords(n)
	for u, row := range g.bits {
		if row != nil && len(row) < words {
			grown := make([]uint64, words)
			copy(grown, row)
			g.bits[u] = grown
		}
	}
}

func (g *Graph) check(u int) {
	if u < 0 || u >= len(g.nbrs) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.nbrs)))
	}
}

// searchNbr binary-searches for v in u's sorted neighbor list, returning the
// insertion index and whether v is present.
func (g *Graph) searchNbr(u, v int) (int, bool) {
	s := g.nbrs[u]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && int(s[lo]) == v
}

// Weight returns ω(u, v), or 0 if {u, v} is not an edge.
func (g *Graph) Weight(u, v int) int {
	g.check(u)
	g.check(v)
	if len(g.nbrs[v]) < len(g.nbrs[u]) {
		u, v = v, u
	}
	if i, ok := g.searchNbr(u, v); ok {
		return int(g.wts[u][i])
	}
	return 0
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if r := g.bits[u]; r != nil {
		return bitsetHas(r, v)
	}
	if r := g.bits[v]; r != nil {
		return bitsetHas(r, u)
	}
	if len(g.nbrs[v]) < len(g.nbrs[u]) {
		u, v = v, u
	}
	_, ok := g.searchNbr(u, v)
	return ok
}

// insertNbr inserts v with weight w into u's sorted lists at index i.
func (g *Graph) insertNbr(u, v, w, i int) {
	g.nbrs[u] = append(g.nbrs[u], 0)
	copy(g.nbrs[u][i+1:], g.nbrs[u][i:])
	g.nbrs[u][i] = int32(v)
	g.wts[u] = append(g.wts[u], 0)
	copy(g.wts[u][i+1:], g.wts[u][i:])
	g.wts[u][i] = int32(w)
	if r := g.bits[u]; r != nil {
		bitsetSet(r, v)
	} else if len(g.nbrs[u]) >= bitsetDegThreshold(len(g.nbrs)) {
		g.buildBitRow(u)
	}
}

// removeNbr deletes index i from u's sorted lists.
func (g *Graph) removeNbr(u, v, i int) {
	copy(g.nbrs[u][i:], g.nbrs[u][i+1:])
	g.nbrs[u] = g.nbrs[u][:len(g.nbrs[u])-1]
	copy(g.wts[u][i:], g.wts[u][i+1:])
	g.wts[u] = g.wts[u][:len(g.wts[u])-1]
	if r := g.bits[u]; r != nil {
		bitsetClear(r, v)
		// Hysteresis: keep the row until the degree halves below the build
		// threshold, so a node oscillating around it doesn't rebuild rows.
		if len(g.nbrs[u]) < bitsetDegThreshold(len(g.nbrs))/2 {
			g.bits[u] = nil
		}
	}
}

// buildBitRow materializes the dense membership row of u.
func (g *Graph) buildBitRow(u int) {
	row := make([]uint64, bitsetWords(len(g.nbrs)))
	for _, v := range g.nbrs[u] {
		bitsetSet(row, int(v))
	}
	g.bits[u] = row
}

// AddWeight adds delta (which may be negative) to ω(u, v). The pair becomes
// an edge when its weight turns positive and stops being one when the weight
// returns to zero. AddWeight panics if the result would be negative or if
// u == v.
func (g *Graph) AddWeight(u, v, delta int) {
	if u == v {
		panic("graph: self-loop")
	}
	g.check(u)
	g.check(v)
	if delta == 0 {
		return
	}
	i, ok := g.searchNbr(u, v)
	old := 0
	if ok {
		old = int(g.wts[u][i])
	}
	nw := old + delta
	if nw < 0 {
		panic(fmt.Sprintf("graph: weight of {%d,%d} would become %d", u, v, nw))
	}
	if nw > math.MaxInt32 {
		// Multiplicities are stored as int32; a weight this large means a
		// caller bug, not a real hypergraph.
		panic(fmt.Sprintf("graph: weight of {%d,%d} would overflow int32 (%d)", u, v, nw))
	}
	switch {
	case old == 0 && nw > 0:
		j, _ := g.searchNbr(v, u)
		g.insertNbr(u, v, nw, i)
		g.insertNbr(v, u, nw, j)
		g.numEdges.Add(1)
	case old > 0 && nw == 0:
		j, _ := g.searchNbr(v, u)
		g.removeNbr(u, v, i)
		g.removeNbr(v, u, j)
		g.numEdges.Add(-1)
	default:
		j, _ := g.searchNbr(v, u)
		g.wts[u][i] = int32(nw)
		g.wts[v][j] = int32(nw)
	}
	g.wdeg[u] += delta
	g.wdeg[v] += delta
	g.totalWeight.Add(int64(delta))
}

// SetWeight sets ω(u, v) to w exactly.
func (g *Graph) SetWeight(u, v, w int) {
	g.AddWeight(u, v, w-g.Weight(u, v))
}

// RemoveEdge deletes the edge {u, v} regardless of its current weight.
func (g *Graph) RemoveEdge(u, v int) {
	w := g.Weight(u, v)
	if w > 0 {
		g.AddWeight(u, v, -w)
	}
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.nbrs[u])
}

// WeightedDegree returns the sum of ω(u, v) over the neighbors v of u —
// the node-level feature used by the MARIOH classifier. The value is cached
// and maintained incrementally, so this is O(1).
func (g *Graph) WeightedDegree(u int) int {
	g.check(u)
	return g.wdeg[u]
}

// Neighbors returns the neighbors of u in ascending order.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	out := make([]int, len(g.nbrs[u]))
	for i, v := range g.nbrs[u] {
		out[i] = int(v)
	}
	return out
}

// NeighborWeights calls fn for every neighbor v of u with ω(u, v), in
// ascending order of v. fn must not mutate the graph.
func (g *Graph) NeighborWeights(u int, fn func(v, w int)) {
	g.check(u)
	ws := g.wts[u]
	for i, v := range g.nbrs[u] {
		fn(int(v), int(ws[i]))
	}
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := range g.nbrs {
		ws := g.wts[u]
		for i, v := range g.nbrs[u] {
			if u < int(v) {
				out = append(out, Edge{U: u, V: int(v), W: int(ws[i])})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nbrs: make([][]int32, len(g.nbrs)),
		wts:  make([][]int32, len(g.wts)),
		bits: make([][]uint64, len(g.bits)),
		wdeg: append([]int(nil), g.wdeg...),
	}
	c.numEdges.Store(g.numEdges.Load())
	c.totalWeight.Store(g.totalWeight.Load())
	for u := range g.nbrs {
		if g.nbrs[u] != nil {
			c.nbrs[u] = append([]int32(nil), g.nbrs[u]...)
			c.wts[u] = append([]int32(nil), g.wts[u]...)
		}
		if g.bits[u] != nil {
			c.bits[u] = append([]uint64(nil), g.bits[u]...)
		}
	}
	return c
}

// CommonNeighbors returns the sorted intersection N(u) ∩ N(v).
func (g *Graph) CommonNeighbors(u, v int) []int {
	g.check(u)
	g.check(v)
	var out []int
	g.eachCommonNeighbor(u, v, func(z int) { out = append(out, z) })
	return out
}

// CountCommonNeighbors returns |N(u) ∩ N(v)| without materializing the
// intersection — the triangle count through the edge {u, v}.
func (g *Graph) CountCommonNeighbors(u, v int) int {
	g.check(u)
	g.check(v)
	// Two dense rows intersect with word-level popcounts.
	if ru, rv := g.bits[u], g.bits[v]; ru != nil && rv != nil {
		return bitsetPopcountAnd(ru, rv)
	}
	n := 0
	g.eachCommonNeighbor(u, v, func(int) { n++ })
	return n
}

// eachCommonNeighbor calls fn with every z ∈ N(u) ∩ N(v) in ascending
// order, using a bitset filter against hub rows when available and a sorted
// merge otherwise.
func (g *Graph) eachCommonNeighbor(u, v int, fn func(z int)) {
	a, b := g.nbrs[u], g.nbrs[v]
	if len(a) > len(b) {
		a, b = b, a
		u, v = v, u
	}
	// a is the shorter list; if the longer side has a dense row, filter.
	if r := g.bits[v]; r != nil {
		for _, z := range a {
			if bitsetHas(r, int(z)) {
				fn(int(z))
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(int(a[i]))
			i++
			j++
		}
	}
}

// SumMinCommonWeight returns Σ_{z ∈ N(u)∩N(v)} min(ω(u,z), ω(v,z)).
// In MARIOH this quantity is MHH(u, v): the maximum possible number of
// hyperedges of size ≥ 3 containing both u and v (Lemma 1 of the paper).
// Computed as a linear merge of the two sorted neighbor arrays.
func (g *Graph) SumMinCommonWeight(u, v int) int {
	g.check(u)
	g.check(v)
	a, b := g.nbrs[u], g.nbrs[v]
	wa, wb := g.wts[u], g.wts[v]
	s := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			z := int(a[i])
			if z != u && z != v {
				if wa[i] < wb[j] {
					s += int(wa[i])
				} else {
					s += int(wb[j])
				}
			}
			i++
			j++
		}
	}
	return s
}

// IsClique reports whether every pair of distinct nodes in the given set is
// an edge. The empty set and singletons are cliques by convention.
func (g *Graph) IsClique(nodes []int) bool {
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				return false
			}
		}
	}
	return true
}

// ConnectedComponents returns the node sets of the connected components,
// each sorted ascending, ordered by their smallest node. Isolated nodes form
// singleton components.
func (g *Graph) ConnectedComponents() [][]int { return g.components(true) }

// components lists the connected components as ConnectedComponents does,
// leaving isolated nodes out unless withIsolated is set. It labels every
// node with its component first and then collects the nodes in order, so
// each list comes out sorted without a sort.
func (g *Graph) components(withIsolated bool) [][]int {
	n := len(g.nbrs)
	label := make([]int32, n) // 1 + component index; 0 = not reached yet
	var sizes []int
	stack := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if label[s] != 0 || (!withIsolated && len(g.nbrs[s]) == 0) {
			continue
		}
		c := int32(len(sizes) + 1)
		label[s] = c
		stack = append(stack[:0], int32(s))
		size := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, v := range g.nbrs[u] {
				if label[v] == 0 {
					label[v] = c
					stack = append(stack, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	comps := make([][]int, len(sizes))
	for i, size := range sizes {
		comps[i] = make([]int, 0, size)
	}
	for u, c := range label {
		if c != 0 {
			comps[c-1] = append(comps[c-1], u)
		}
	}
	return comps
}

// Triangles calls fn for every triangle a < b < c in the graph. If fn
// returns false, enumeration stops early.
func (g *Graph) Triangles(fn func(a, b, c int) bool) {
	n := len(g.nbrs)
	for a := 0; a < n; a++ {
		na := g.nbrs[a]
		for i, b := range na {
			if int(b) <= a {
				continue
			}
			for _, c := range na[i+1:] {
				if c > b && g.HasEdge(int(b), int(c)) {
					if !fn(a, int(b), int(c)) {
						return
					}
				}
			}
		}
	}
}

// Subgraph returns the induced subgraph on the given nodes, relabeled
// 0..len(nodes)-1 in the order given, together with the mapping back to the
// original node ids. The dense index array makes extraction O(n + deg(S)),
// cheap enough for a session to carve out its dirty components on every
// apply.
func (g *Graph) Subgraph(nodes []int) (*Graph, []int) {
	idx := make([]int32, len(g.nbrs))
	for i := range idx {
		idx[i] = -1
	}
	for i, u := range nodes {
		g.check(u)
		idx[u] = int32(i)
	}
	sub := New(len(nodes))
	for i, u := range nodes {
		ws := g.wts[u]
		for k, v := range g.nbrs[u] {
			if j := idx[v]; j >= 0 && int32(i) < j {
				sub.AddWeight(i, int(j), int(ws[k]))
			}
		}
	}
	back := make([]int, len(nodes))
	copy(back, nodes)
	return sub, back
}
