package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/graph"
)

// randomGraph builds a graph of several random near-clique communities
// joined by a few bridges, the structure the partitioner targets.
func randomGraph(rng *rand.Rand, communities, size int) *graph.Graph {
	n := communities * size
	g := graph.New(n)
	for c := 0; c < communities; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < 0.7 {
					g.AddWeight(base+i, base+j, 1+rng.Intn(3))
				}
			}
		}
	}
	// Chain some communities together with bridges of varying ω.
	for c := 0; c+1 < communities; c++ {
		if rng.Float64() < 0.5 {
			g.AddWeight(c*size, (c+1)*size, 1+rng.Intn(2))
		}
	}
	return g
}

// planEdges flattens a plan back into original-id edges.
func planEdges(p *Plan) []graph.Edge {
	var out []graph.Edge
	for _, piece := range p.Pieces {
		for _, e := range piece.Graph.Edges() {
			out = append(out, graph.Edge{U: piece.Nodes[e.U], V: piece.Nodes[e.V], W: e.W})
		}
	}
	return out
}

// TestPartitionCoversEveryEdgeExactlyOnce is the core invariant: the union
// of the shard subgraphs is the input graph, edge for edge, weight for
// weight, with no duplicates.
func TestPartitionCoversEveryEdgeExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(6), 3+rng.Intn(6))
		for _, opts := range []Options{
			{Shards: 1},
			{Shards: 2},
			{Shards: 4},
			{Shards: 16},
			{Shards: 4, DisableSplit: true},
		} {
			plan := Partition(g, opts)
			seen := map[[2]int]int{}
			for _, e := range planEdges(plan) {
				seen[[2]int{e.U, e.V}] += 1
				if got := e.W; got != g.Weight(e.U, e.V) {
					t.Fatalf("trial %d %+v: ω(%d,%d) = %d, want %d", trial, opts, e.U, e.V, got, g.Weight(e.U, e.V))
				}
			}
			for pair, count := range seen {
				if count != 1 {
					t.Fatalf("trial %d %+v: edge %v assigned %d times", trial, opts, pair, count)
				}
			}
			if len(seen) != g.NumEdges() {
				t.Fatalf("trial %d %+v: plan covers %d edges, graph has %d", trial, opts, len(seen), g.NumEdges())
			}
		}
	}
}

// TestPartitionOwnsEveryVertexExactlyOnce: every node with an edge appears
// in some piece, and one piece holds all of its uncut edges and all of its
// edges toward larger nodes — the piece that owns it. In any other piece
// it is a halo: the larger endpoint of cut edges only.
func TestPartitionOwnsEveryVertexExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(5), 3+rng.Intn(5))
		plan := Partition(g, Options{Shards: 4})
		owner := make([]int, g.NumNodes())
		for u := range owner {
			owner[u] = -1
		}
		appears := make([]bool, g.NumNodes())
		for p, piece := range plan.Pieces {
			for _, u := range piece.Nodes {
				appears[u] = true
			}
			for _, e := range piece.Graph.Edges() {
				u, v := piece.Nodes[e.U], piece.Nodes[e.V]
				owned := []int{u}
				if g.CountCommonNeighbors(u, v) > 0 {
					owned = append(owned, v)
				}
				for _, x := range owned {
					if owner[x] >= 0 && owner[x] != p {
						t.Fatalf("trial %d: node %d owned by pieces %d and %d", trial, x, owner[x], p)
					}
					owner[x] = p
				}
			}
		}
		for u := range owner {
			if got, want := appears[u], g.Degree(u) > 0; got != want {
				t.Fatalf("trial %d: node %d of degree %d appears in a piece: %v", trial, u, g.Degree(u), got)
			}
		}
	}
}

// TestPartitionNeverSplitsMaximalClique: every maximal clique of the input
// graph must be fully contained in exactly one piece — the property that
// lets each shard score its cliques with no knowledge of the others.
func TestPartitionNeverSplitsMaximalClique(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 2+rng.Intn(5), 3+rng.Intn(5))
		plan := Partition(g, Options{Shards: 8})
		cliques := g.MaximalCliques(2)
		for _, q := range cliques {
			hosts := 0
			for _, piece := range plan.Pieces {
				local := map[int]int{}
				for i, u := range piece.Nodes {
					local[u] = i
				}
				ok := true
				for i := 0; ok && i < len(q); i++ {
					if _, in := local[q[i]]; !in {
						ok = false
					}
				}
				if !ok {
					continue
				}
				lq := make([]int, len(q))
				for i, u := range q {
					lq[i] = local[u]
				}
				if piece.Graph.IsClique(lq) {
					hosts++
				}
			}
			if hosts != 1 {
				t.Fatalf("trial %d: maximal clique %v lives in %d pieces, want exactly 1", trial, q, hosts)
			}
		}
	}
}

// pieceOf returns the index of the piece holding edge (u, v), or -1.
func pieceOf(plan *Plan, u, v int) int {
	for p, piece := range plan.Pieces {
		lu, okU := slices.BinarySearch(piece.Nodes, u)
		lv, okV := slices.BinarySearch(piece.Nodes, v)
		if okU && okV && piece.Graph.HasEdge(lu, lv) {
			return p
		}
	}
	return -1
}

// TestPartitionCutsOnlyEdgesWithoutCommonNeighbour: two triangles are
// joined by a bridge, by a triangle-free 4-cycle, or by edges that close
// triangles. The partitioner cuts the joining edges in the first two cases
// (none of them has a common neighbour, and the 4-cycle has no bridge) and
// keeps the graph whole in the third. A cut edge is held by the piece of
// its smaller endpoint's triangle.
func TestPartitionCutsOnlyEdgesWithoutCommonNeighbour(t *testing.T) {
	for _, tc := range []struct {
		name   string
		joins  [][2]int
		pieces int
	}{
		{"bridge", [][2]int{{2, 3}}, 2},
		{"4-cycle", [][2]int{{2, 3}, {1, 4}}, 2},
		{"triangles", [][2]int{{2, 3}, {2, 4}}, 1},
	} {
		g := graph.New(6)
		g.AddWeight(0, 1, 2)
		g.AddWeight(0, 2, 2)
		g.AddWeight(1, 2, 2)
		g.AddWeight(3, 4, 2)
		g.AddWeight(3, 5, 2)
		g.AddWeight(4, 5, 2)
		for _, j := range tc.joins {
			g.AddWeight(j[0], j[1], 1)
		}
		plan := Partition(g, Options{Shards: 2})
		if len(plan.Pieces) != tc.pieces {
			t.Fatalf("%s: want %d pieces, got %d", tc.name, tc.pieces, len(plan.Pieces))
		}
		left, right := pieceOf(plan, 0, 1), pieceOf(plan, 3, 4)
		for _, j := range tc.joins {
			if got := pieceOf(plan, j[0], j[1]); got != left {
				t.Fatalf("%s: edge %v held by piece %d, want %d (its smaller endpoint's)", tc.name, j, got, left)
			}
		}
		if tc.pieces == 2 && left == right {
			t.Fatalf("%s: both triangles in piece %d", tc.name, left)
		}
	}
}

// TestPartitionDeterministicUnderGOMAXPROCS pins byte-level plan
// determinism across GOMAXPROCS settings (the partitioner is
// single-threaded; this guards against anyone parallelizing it with
// nondeterministic reductions later).
func TestPartitionDeterministicUnderGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 6, 6)
	render := func(p *Plan) string {
		s := ""
		for i, piece := range p.Pieces {
			s += fmt.Sprintf("piece %d nodes=%v edges=%v\n", i, piece.Nodes, piece.Graph.Edges())
		}
		return s
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	a := render(Partition(g, Options{Shards: 4}))
	runtime.GOMAXPROCS(8)
	b := render(Partition(g, Options{Shards: 4}))
	if a != b {
		t.Fatalf("plan differs across GOMAXPROCS:\n%s\nvs\n%s", a, b)
	}
	// And across repeated calls in the same setting.
	if c := render(Partition(g, Options{Shards: 4})); b != c {
		t.Fatal("plan not reproducible across calls")
	}
}

// TestPackEqualWeightTieBreakByMinNode is the LPT tie-break regression
// test: equal-weight components must pack in ascending min-original-node
// order into the lightest bin (ties: lowest bin index), so the assignment
// is a pure function of the graph — the invariant session re-partitioning
// after deltas relies on for determinism across runs.
func TestPackEqualWeightTieBreakByMinNode(t *testing.T) {
	// Six disjoint triangles: all atoms weigh 3 edges, so ordering is
	// decided entirely by the tie-break.
	const k = 6
	g := graph.New(3 * k)
	for i := 0; i < k; i++ {
		b := 3 * i
		g.AddWeight(b, b+1, 1)
		g.AddWeight(b, b+2, 1)
		g.AddWeight(b+1, b+2, 1)
	}
	plan := Partition(g, Options{Shards: 3})
	if len(plan.Pieces) != 3 {
		t.Fatalf("want 3 pieces, got %d", len(plan.Pieces))
	}
	// LPT over equal weights: triangle i (min node 3i) lands in bin i%3.
	for i := 0; i < k; i++ {
		if got, want := pieceOf(plan, 3*i, 3*i+1), i%3; got != want {
			t.Fatalf("triangle %d (min node %d) packed into piece %d, want %d", i, 3*i, got, want)
		}
	}
	// The assignment must be stable across repeated partitions and across
	// an insertion-order-permuted rebuild of the same graph.
	render := func(p *Plan) string {
		s := ""
		for i, piece := range p.Pieces {
			s += fmt.Sprintf("piece %d nodes=%v edges=%v\n", i, piece.Nodes, piece.Graph.Edges())
		}
		return s
	}
	want := render(plan)
	if got := render(Partition(g, Options{Shards: 3})); got != want {
		t.Fatal("repeated partition differs")
	}
	g2 := graph.New(3 * k)
	for i := k - 1; i >= 0; i-- {
		b := 3 * i
		g2.AddWeight(b+1, b+2, 1)
		g2.AddWeight(b, b+2, 1)
		g2.AddWeight(b, b+1, 1)
	}
	if got := render(Partition(g2, Options{Shards: 3})); got != want {
		t.Fatal("partition depends on edge insertion order")
	}
}

// TestPartitionDisableSplitKeepsComponentsWhole: with splitting disabled an
// oversized component stays in one piece.
func TestPartitionDisableSplitKeepsComponentsWhole(t *testing.T) {
	g := graph.New(6)
	g.AddWeight(0, 1, 1)
	g.AddWeight(1, 2, 1)
	g.AddWeight(2, 3, 1)
	g.AddWeight(3, 4, 1)
	g.AddWeight(4, 5, 1)
	plan := Partition(g, Options{Shards: 4, DisableSplit: true})
	if len(plan.Pieces) != 1 {
		t.Fatalf("DisableSplit must keep the path whole, got %d pieces", len(plan.Pieces))
	}
	// Without it every edge of the triangle-free path is cut.
	if plan := Partition(g, Options{Shards: 4}); len(plan.Pieces) != 4 {
		t.Fatalf("the cut path must fill 4 pieces, got %d", len(plan.Pieces))
	}
}

// corpusMutated replays a family's adversarial delta stream onto its base
// graph, giving the property tests the post-churn shapes the equivalence
// gates actually reconstruct.
func corpusMutated(f corpus.Family, seed int64, n int) *graph.Graph {
	g := f.Gen(seed)
	for _, op := range f.Deltas(seed, n) {
		top := op.U
		if op.V > top {
			top = op.V
		}
		g.EnsureNodes(top + 1)
		switch op.Kind {
		case graph.DeltaAdd:
			g.AddWeight(op.U, op.V, op.W)
		case graph.DeltaRemove:
			g.RemoveEdge(op.U, op.V)
		case graph.DeltaSet:
			g.SetWeight(op.U, op.V, op.W)
		}
	}
	return g
}

// TestPartitionPropertiesOverCorpus promotes the partitioner's two core
// invariants — every edge assigned exactly once with its original weight,
// and no maximal clique ever split across pieces — from the random-graph
// trials above to every scenario-corpus family, on both the base graph
// and the graph after the family's adversarial delta stream. The hub,
// bridge-chain and overlapping-clique shapes are engineered to sit on the
// partitioner's decision boundaries (bridge cuts, clique containment),
// which uniform random communities rarely reach.
func TestPartitionPropertiesOverCorpus(t *testing.T) {
	for _, f := range corpus.Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for _, state := range []struct {
				name string
				g    *graph.Graph
			}{
				{"base", f.Gen(1)},
				{"mutated", corpusMutated(f, 1, 60)},
			} {
				g := state.g
				for _, opts := range []Options{
					{Shards: 1},
					{Shards: 4},
					{Shards: 16},
				} {
					plan := Partition(g, opts)

					// Edge cover: exactly once, exact weight.
					seen := map[[2]int]int{}
					for _, e := range planEdges(plan) {
						seen[[2]int{e.U, e.V}]++
						if e.W != g.Weight(e.U, e.V) {
							t.Fatalf("%s %+v: ω(%d,%d) = %d, want %d",
								state.name, opts, e.U, e.V, e.W, g.Weight(e.U, e.V))
						}
					}
					for pair, count := range seen {
						if count != 1 {
							t.Fatalf("%s %+v: edge %v assigned %d times", state.name, opts, pair, count)
						}
					}
					if len(seen) != g.NumEdges() {
						t.Fatalf("%s %+v: plan covers %d edges, graph has %d",
							state.name, opts, len(seen), g.NumEdges())
					}

					// Clique containment: every maximal clique hosted whole by
					// exactly one piece.
					for _, q := range g.MaximalCliques(2) {
						hosts := 0
						for _, piece := range plan.Pieces {
							local := map[int]int{}
							for i, u := range piece.Nodes {
								local[u] = i
							}
							ok := true
							for i := 0; ok && i < len(q); i++ {
								if _, in := local[q[i]]; !in {
									ok = false
								}
							}
							if !ok {
								continue
							}
							lq := make([]int, len(q))
							for i, u := range q {
								lq[i] = local[u]
							}
							if piece.Graph.IsClique(lq) {
								hosts++
							}
						}
						if hosts != 1 {
							t.Fatalf("%s %+v: maximal clique %v lives in %d pieces, want exactly 1",
								state.name, opts, q, hosts)
						}
					}
				}
			}
		})
	}
}

// checkMHH asserts that plan keeps every edge's MHH: a piece edge whose
// endpoints share a neighbour in g has the same SumMinCommonWeight in the
// piece as in g, and every other piece edge has no common neighbour in the
// piece either — so filtering a piece treats each edge as filtering g does.
func checkMHH(t *testing.T, name string, g *graph.Graph, plan *Plan) {
	t.Helper()
	for p, piece := range plan.Pieces {
		for _, e := range piece.Graph.Edges() {
			u, v := piece.Nodes[e.U], piece.Nodes[e.V]
			if g.CountCommonNeighbors(u, v) > 0 {
				if got, want := piece.Graph.SumMinCommonWeight(e.U, e.V), g.SumMinCommonWeight(u, v); got != want {
					t.Fatalf("%s: piece %d edge (%d,%d): MHH %d, want %d", name, p, u, v, got, want)
				}
			} else if c := piece.Graph.CountCommonNeighbors(e.U, e.V); c != 0 {
				t.Fatalf("%s: piece %d cut edge (%d,%d) has %d common neighbours", name, p, u, v, c)
			}
		}
	}
}

// TestPartitionPreservesMHH checks checkMHH's invariant, the reason the cut
// is output-exact, over random community graphs, sparse random graphs full
// of triangle-free edges, and every corpus family before and after its
// delta stream.
func TestPartitionPreservesMHH(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var graphs []*graph.Graph
	for trial := 0; trial < 10; trial++ {
		graphs = append(graphs, randomGraph(rng, 2+rng.Intn(6), 3+rng.Intn(6)))
		n := 20 + rng.Intn(40)
		sparse := graph.New(n)
		for i := 0; i < 2*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				sparse.AddWeight(u, v, 1+rng.Intn(3))
			}
		}
		graphs = append(graphs, sparse)
	}
	for i, g := range graphs {
		for _, shards := range []int{2, 4, 16} {
			checkMHH(t, fmt.Sprintf("random %d shards=%d", i, shards), g, Partition(g, Options{Shards: shards}))
		}
	}
	for _, f := range corpus.Families {
		for _, state := range []struct {
			name string
			g    *graph.Graph
		}{
			{"base", f.Gen(1)},
			{"mutated", corpusMutated(f, 1, 60)},
		} {
			for _, shards := range []int{2, 4, 16} {
				name := fmt.Sprintf("%s %s shards=%d", f.Name, state.name, shards)
				checkMHH(t, name, state.g, Partition(state.g, Options{Shards: shards}))
			}
		}
	}
}
