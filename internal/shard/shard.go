// Package shard implements the deterministic graph partitioner of
// MARIOH's former shard-parallel reconstruction engine. The engine is
// deleted: the default path reconstructs components in parallel and was
// at or below it on every input. No library, CLI or daemon code imports
// this package; only perfbench's sharded replay probe (perfbench/replay.go)
// does, and the package goes with that probe.
//
// A partition assigns every edge of the projected graph to exactly one
// shard. It cuts exactly where MARIOH's filtering step does: an edge whose
// endpoints share no neighbour has MHH 0 (Lemma 1), so filtering
// (Algorithm 2) removes it in full, as a size-2 hyperedge, before any
// clique is scored. The atoms of the partition are the connected
// components of the graph without those cut edges; each cut edge joins the
// atom of its smaller endpoint, where its larger endpoint is a halo node.
//
// The cut is exact. Any common neighbour z of an uncut edge (u, v) is
// joined to both endpoints by uncut edges ((u, z) shares v, (v, z) shares
// u), so z and both its edges sit in u's atom: a piece computes every
// uncut edge's MHH exactly as the whole graph does, and a halo node is
// never a common neighbour inside a piece. After filtering, every piece
// therefore holds whole components of the serial run's residual graph,
// and every maximal clique of the input graph lives — and is scored — in
// exactly one shard.
//
// Partitioning is single-threaded and fully deterministic: the same graph
// and options produce the same Plan regardless of GOMAXPROCS or prior
// allocations.
package shard

import (
	"sort"

	"marioh/internal/graph"
)

// Options configure Partition.
type Options struct {
	// Shards is the number of shards to produce (bins of the final
	// packing). Values < 1 are treated as 1. The plan may contain fewer
	// pieces when the graph has fewer atoms than shards.
	Shards int
	// DisableSplit cuts nothing, so atoms are whole connected components.
	// The reconstruction engine sets it when filtering is disabled
	// (MARIOH-F), because a cut is only output-exact when filtering
	// consumes the cut edge first.
	DisableSplit bool
}

// Piece is one shard: the subgraph carrying the edges assigned to it.
type Piece struct {
	// Nodes are the sorted original node ids appearing in the piece: the
	// nodes of its atoms plus the halo endpoints of its cut edges.
	Nodes []int
	// Graph is the piece's subgraph, relabeled 0..len(Nodes)-1 in Nodes
	// order (so the relabeling is order-preserving); Nodes doubles as the
	// local→original id map.
	Graph *graph.Graph
	// EdgeCount is the number of edges assigned to the piece.
	EdgeCount int
}

// Plan is a deterministic edge partition of a graph.
type Plan struct {
	Pieces []Piece
}

// Partition builds a deterministic shard plan for g.
func Partition(g *graph.Graph, opts Options) *Plan {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	// One traversal over the uncut edges, started from every unvisited
	// node in ascending id, collects the atoms; each node files its edges
	// toward larger nodes under its own atom. An edge is tested only when
	// it reaches an unvisited node, so each is tested at most once.
	n := g.NumNodes()
	seen := make([]bool, n)
	var atoms [][]graph.Edge
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var edges []graph.Edge
		seen[s] = true
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.NeighborWeights(u, func(v, w int) {
				if u < v {
					edges = append(edges, graph.Edge{U: u, V: v, W: w})
				}
				if !seen[v] && (opts.DisableSplit || g.CountCommonNeighbors(u, v) > 0) {
					seen[v] = true
					stack = append(stack, v)
				}
			})
		}
		// An atom without edges is an isolated node, or one whose edges
		// are all cut and held by the atoms of their smaller endpoints.
		if len(edges) > 0 {
			atoms = append(atoms, edges)
		}
	}
	return pack(atoms, opts.Shards, n)
}

// pack bins atoms into at most shards pieces with a deterministic
// longest-processing-time greedy: atoms sorted by descending edge count,
// breaking equal weights by their smallest node, land in the currently
// lightest bin (ties: lowest bin index). Every node below the node an
// atom's traversal started from was visited before it, so that start node
// is the atom's smallest and its first edge leaves it. Keying the
// tie-break on it makes the packing a pure function of the graph — the
// property session re-partitioning after deltas relies on for determinism
// across runs, pinned by TestPackEqualWeightTieBreakByMinNode.
func pack(atoms [][]graph.Edge, shards, n int) *Plan {
	order := make([]int, len(atoms))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ax, ay := atoms[order[x]], atoms[order[y]]
		if len(ax) != len(ay) {
			return len(ax) > len(ay)
		}
		return ax[0].U < ay[0].U
	})
	if shards > len(atoms) {
		shards = len(atoms)
	}
	load := make([]int, shards)
	bins := make([][]int, shards) // atom indices per bin
	for _, ai := range order {
		best := 0
		for b := 1; b < shards; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		bins[best] = append(bins[best], ai)
		load[best] += len(atoms[ai])
	}

	plan := &Plan{Pieces: make([]Piece, 0, shards)}
	listed := make([]int, n) // 1 + index of the last piece listing the node
	local := make([]int, n)  // original → piece-local id, per piece
	for p, bin := range bins {
		var edges []graph.Edge
		var nodes []int
		for _, ai := range bin {
			edges = append(edges, atoms[ai]...)
		}
		for _, e := range edges {
			for _, u := range [2]int{e.U, e.V} {
				if listed[u] != p+1 {
					listed[u] = p + 1
					nodes = append(nodes, u)
				}
			}
		}
		sort.Ints(nodes)
		for i, u := range nodes {
			local[u] = i
		}
		sub := graph.New(len(nodes))
		for _, e := range edges {
			sub.AddWeight(local[e.U], local[e.V], e.W)
		}
		plan.Pieces = append(plan.Pieces, Piece{Nodes: nodes, Graph: sub, EdgeCount: len(edges)})
	}
	return plan
}
