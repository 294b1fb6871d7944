// Package hypergraph implements the hypergraph substrate of the MARIOH
// reproduction: a multiset of hyperedges H = (V, E*_H) with per-hyperedge
// multiplicities, the clique-expansion projection into a weighted pairwise
// graph, and the structural properties used in the paper's Table IV.
//
// Hyperedges are node sets of size ≥ 2 identified by a canonical key (see
// Key); a hyperedge occurring m times in the multiset has multiplicity m.
package hypergraph

import (
	"fmt"
	"sort"

	"marioh/internal/graph"
)

type entry struct {
	nodes []int // sorted, deduplicated
	mult  int
}

// Hypergraph is a multiset of hyperedges over nodes 0..NumNodes()-1.
// The zero value is not usable; call New.
type Hypergraph struct {
	numNodes int
	entries  map[string]*entry
	keys     []string // unique keys in first-insertion order (determinism)
	total    int      // Σ multiplicities
	sumSizes int      // Σ |e| · M(e)
}

// New returns an empty hypergraph with capacity for n nodes. The node set
// grows automatically when hyperedges mention larger ids.
func New(n int) *Hypergraph {
	return &Hypergraph{numNodes: n, entries: make(map[string]*entry)}
}

// NumNodes returns the size of the node universe.
func (h *Hypergraph) NumNodes() int { return h.numNodes }

// EnsureNodes grows the node universe to at least n nodes.
func (h *Hypergraph) EnsureNodes(n int) {
	if n > h.numNodes {
		h.numNodes = n
	}
}

// NumUnique returns the number of distinct hyperedges |E_H|.
func (h *Hypergraph) NumUnique() int { return len(h.keys) }

// NumTotal returns the multiset size |E*_H| = Σ_e M(e).
func (h *Hypergraph) NumTotal() int { return h.total }

// SumSizes returns Σ_e |e| · M(e), the total incidence count.
func (h *Hypergraph) SumSizes() int { return h.sumSizes }

// Add inserts one occurrence of the hyperedge given by nodes.
func (h *Hypergraph) Add(nodes []int) { h.AddMult(nodes, 1) }

// AddMult inserts m occurrences of the hyperedge given by nodes. The input
// is canonicalized (sorted, deduplicated); hyperedges must contain at least
// two distinct nodes.
func (h *Hypergraph) AddMult(nodes []int, m int) {
	if m <= 0 {
		panic(fmt.Sprintf("hypergraph: non-positive multiplicity %d", m))
	}
	canon := canonical(nodes)
	if len(canon) < 2 {
		panic(fmt.Sprintf("hypergraph: hyperedge %v has fewer than 2 distinct nodes", nodes))
	}
	k := KeySorted(canon)
	if e, ok := h.entries[k]; ok {
		e.mult += m
	} else {
		h.entries[k] = &entry{nodes: canon, mult: m}
		h.keys = append(h.keys, k)
		if top := canon[len(canon)-1] + 1; top > h.numNodes {
			h.numNodes = top
		}
	}
	h.total += m
	h.sumSizes += len(canon) * m
}

func canonical(nodes []int) []int {
	s := make([]int, len(nodes))
	copy(s, nodes)
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if v < 0 {
			panic("hypergraph: negative node id")
		}
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Multiplicity returns M(e) for the hyperedge with the given node set, or 0
// if absent.
func (h *Hypergraph) Multiplicity(nodes []int) int {
	return h.MultiplicityKey(Key(nodes))
}

// MultiplicityKey returns the multiplicity of the hyperedge with canonical
// key k, or 0 if absent.
func (h *Hypergraph) MultiplicityKey(k string) int {
	if e, ok := h.entries[k]; ok {
		return e.mult
	}
	return 0
}

// ContainsKey reports whether a hyperedge with canonical key k is present.
func (h *Hypergraph) ContainsKey(k string) bool {
	_, ok := h.entries[k]
	return ok
}

// Contains reports whether the given node set is a hyperedge.
func (h *Hypergraph) Contains(nodes []int) bool {
	return h.ContainsKey(Key(nodes))
}

// Keys returns the canonical keys of the unique hyperedges in
// first-insertion order. The returned slice must not be modified.
func (h *Hypergraph) Keys() []string { return h.keys }

// EdgeByKey returns the sorted node set for key k. It panics if k is absent.
func (h *Hypergraph) EdgeByKey(k string) []int {
	e, ok := h.entries[k]
	if !ok {
		panic("hypergraph: unknown key")
	}
	out := make([]int, len(e.nodes))
	copy(out, e.nodes)
	return out
}

// UniqueEdges returns copies of all distinct hyperedges (sorted node sets)
// in first-insertion order.
func (h *Hypergraph) UniqueEdges() [][]int {
	out := make([][]int, 0, len(h.keys))
	for _, k := range h.keys {
		out = append(out, h.EdgeByKey(k))
	}
	return out
}

// EdgeMult pairs a hyperedge with its multiplicity.
type EdgeMult struct {
	Nodes []int
	Mult  int
}

// EdgesWithMult returns all distinct hyperedges with their multiplicities in
// first-insertion order.
func (h *Hypergraph) EdgesWithMult() []EdgeMult {
	out := make([]EdgeMult, 0, len(h.keys))
	for _, k := range h.keys {
		e := h.entries[k]
		nodes := make([]int, len(e.nodes))
		copy(nodes, e.nodes)
		out = append(out, EdgeMult{Nodes: nodes, Mult: e.mult})
	}
	return out
}

// Each calls fn once per unique hyperedge with its multiplicity, in
// first-insertion order. The node slice must not be modified.
func (h *Hypergraph) Each(fn func(nodes []int, mult int)) {
	for _, k := range h.keys {
		e := h.entries[k]
		fn(e.nodes, e.mult)
	}
}

// Clone returns a deep copy.
func (h *Hypergraph) Clone() *Hypergraph {
	c := New(h.numNodes)
	h.Each(func(nodes []int, mult int) { c.AddMult(nodes, mult) })
	return c
}

// Reduced returns the multiplicity-reduced hypergraph: the same unique
// hyperedges, each with multiplicity 1. This matches the paper's
// "multiplicity-reduced setting" (Sect. IV-A). Note that projecting the
// reduced hypergraph still yields edge multiplicities > 1 wherever distinct
// hyperedges overlap in two or more nodes.
func (h *Hypergraph) Reduced() *Hypergraph {
	c := New(h.numNodes)
	h.Each(func(nodes []int, _ int) { c.AddMult(nodes, 1) })
	return c
}

// Project performs clique expansion, producing the weighted projected graph
// G = (V, E_G, ω) with ω(u,v) = Σ_e M(e) · 1({u,v} ⊆ e). It panics when a
// pair's weight would pass int32, which Read rejects as malformed input.
func (h *Hypergraph) Project() *graph.Graph {
	g := graph.New(h.numNodes)
	h.Each(func(nodes []int, mult int) {
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				g.AddWeight(nodes[i], nodes[j], mult)
			}
		}
	})
	return g
}

// NodeDegrees returns, for every node, the number of hyperedge occurrences
// containing it (multiplicities counted).
func (h *Hypergraph) NodeDegrees() []int {
	deg := make([]int, h.numNodes)
	h.Each(func(nodes []int, mult int) {
		for _, u := range nodes {
			deg[u] += mult
		}
	})
	return deg
}

// CoveredNodes returns the number of nodes that appear in at least one
// hyperedge.
func (h *Hypergraph) CoveredNodes() int {
	seen := make([]bool, h.numNodes)
	n := 0
	h.Each(func(nodes []int, _ int) {
		for _, u := range nodes {
			if !seen[u] {
				seen[u] = true
				n++
			}
		}
	})
	return n
}

// EdgeSizes returns the sizes of all hyperedge occurrences (one entry per
// occurrence, so a hyperedge with multiplicity m contributes m entries).
func (h *Hypergraph) EdgeSizes() []int {
	out := make([]int, 0, h.total)
	h.Each(func(nodes []int, mult int) {
		for i := 0; i < mult; i++ {
			out = append(out, len(nodes))
		}
	})
	return out
}

// Equal reports whether two hypergraphs have identical hyperedge multisets.
func (h *Hypergraph) Equal(o *Hypergraph) bool {
	if h.NumUnique() != o.NumUnique() || h.total != o.total {
		return false
	}
	for k, e := range h.entries {
		if o.MultiplicityKey(k) != e.mult {
			return false
		}
	}
	return true
}

// AvgMultiplicity returns the average hyperedge multiplicity
// |E*_H| / |E_H|, the "Avg. M_H" column of the paper's Table I.
func (h *Hypergraph) AvgMultiplicity() float64 {
	if len(h.keys) == 0 {
		return 0
	}
	return float64(h.total) / float64(len(h.keys))
}
