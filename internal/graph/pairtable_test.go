package graph

import (
	"math"
	"math/rand"
	"testing"
)

// pairTableGraph builds three components over disjoint node ranges —
// [0,150), [150,250) and [250,300) — with random multiplicities 1..4.
// Node 0 is a hub adjacent to the rest of its component, so it and its
// densest neighbors carry dense bitset rows (degree ≥ 64).
func pairTableGraph(rng *rand.Rand) (*Graph, [][]int) {
	g := New(300)
	comps := [][2]int{{0, 150}, {150, 250}, {250, 300}}
	var nodes [][]int
	for _, c := range comps {
		var comp []int
		for u := c[0]; u < c[1]; u++ {
			comp = append(comp, u)
			for v := u + 1; v < c[1]; v++ {
				if rng.Float64() < 0.12 {
					g.AddWeight(u, v, 1+rng.Intn(4))
				}
			}
		}
		nodes = append(nodes, comp)
	}
	for v := 1; v < 150; v++ {
		if !g.HasEdge(0, v) {
			g.AddWeight(0, v, 1+rng.Intn(4))
		}
	}
	return g, nodes
}

// cliquesWithin returns g's maximal cliques whose nodes lie in [lo, hi),
// plus a few arbitrary node sets of that range, which hold non-edges.
func cliquesWithin(g *Graph, rng *rand.Rand, lo, hi int) [][]int {
	var out [][]int
	for _, q := range g.MaximalCliques(2) {
		if q[0] >= lo && q[len(q)-1] < hi {
			out = append(out, q)
		}
	}
	for k := 0; k < 8; k++ {
		set := rng.Perm(hi - lo)[:2+rng.Intn(6)]
		for i := range set {
			set[i] += lo
		}
		out = append(out, set)
	}
	return out
}

// checkPairTable compares the table's reading of every set against the
// per-pair Weight and SumMinCommonWeight merges, element by element, at
// the positions PairIndex names.
func checkPairTable(t *testing.T, what string, g *Graph, tab *PairTable, sets [][]int) {
	t.Helper()
	var omega, mhh []int
	for _, q := range sets {
		omega, mhh = tab.AppendPairs(omega[:0], mhh[:0], q)
		p := 0
		for i := 0; i < len(q); i++ {
			for j := i + 1; j < len(q); j++ {
				if got := PairIndex(len(q), i, j); got != p {
					t.Fatalf("PairIndex(%d, %d, %d) = %d, want %d", len(q), i, j, got, p)
				}
				wantW, wantM := g.Weight(q[i], q[j]), g.SumMinCommonWeight(q[i], q[j])
				if p >= len(omega) || p >= len(mhh) {
					t.Fatalf("%s: q=%v: %d/%d pairs, want more", what, q, len(omega), len(mhh))
				}
				if omega[p] != wantW || mhh[p] != wantM {
					t.Fatalf("%s: q=%v pair (%d,%d): (ω %d, MHH %d), the merges give (%d, %d)",
						what, q, q[i], q[j], omega[p], mhh[p], wantW, wantM)
				}
				p++
			}
		}
		if p != len(omega) || p != len(mhh) {
			t.Fatalf("%s: q=%v: %d/%d pairs, want %d", what, q, len(omega), len(mhh), p)
		}
	}
}

// TestCliquePairStatsMatchesPairwise: a clique's pair statistics, ω and
// the MHH bound of every pair read off a table, equal the per-pair Weight
// and SumMinCommonWeight merges on small random graphs, for maximal cliques
// and for arbitrary node sets (ω = 0 pairs), at the positions PairIndex
// names, whether the table covers every node or the one set alone.
func TestCliquePairStatsMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var tab PairTable
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddWeight(i, j, 1+rng.Intn(4))
				}
			}
		}
		sets := g.MaximalCliques(2)
		for k := 0; k < 5; k++ {
			sets = append(sets, rng.Perm(n)[:2+rng.Intn(5)])
		}
		tab.Build(g, nil)
		checkPairTable(t, "small graph", g, &tab, sets)
		for _, q := range sets {
			tab.Build(g, q)
			checkPairTable(t, "one set alone", g, &tab, [][]int{q})
		}
	}
}

// TestPairTableMatchesCliquePairStats: a table's reading of a node set is
// the clique pair statistics the per-pair merges give, for every covered
// set the round engine builds over — every node, a union of components,
// the union of a few cliques — and stays exact while edges change outside
// the covered nodes, for cliques whose pairs were consumed before the
// build, across rebuilds of one table on other node sets and a larger
// graph, and for MHH sums past int32.
func TestPairTableMatchesCliquePairStats(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, comps := pairTableGraph(rng)
		hubs := 0
		for u := 0; u < g.NumNodes(); u++ {
			if g.bits[u] != nil {
				hubs++
			}
		}
		if hubs == 0 {
			t.Fatal("weak fixture: no node above the bitset threshold")
		}
		inA := cliquesWithin(g, rng, 0, 150)
		inB := cliquesWithin(g, rng, 150, 250)
		inC := cliquesWithin(g, rng, 250, 300)

		var tab PairTable
		tab.Build(g, nil)
		checkPairTable(t, "all nodes", g, &tab, append(append(append([][]int(nil), inA...), inB...), inC...))

		// A union of components; then B changes underneath the table.
		tab.Build(g, append(append([]int(nil), comps[0]...), comps[2]...))
		checkPairTable(t, "components A∪C", g, &tab, append(append([][]int(nil), inA...), inC...))
		for _, q := range inB[:len(inB)/2] {
			for i := 1; i < len(q); i++ {
				if g.HasEdge(q[0], q[i]) {
					g.AddWeight(q[0], q[i], -1)
				} else {
					g.AddWeight(q[0], q[i], 2)
				}
			}
		}
		checkPairTable(t, "components A∪C after B changed", g, &tab, append(append([][]int(nil), inA...), inC...))

		// Rebuilt on B alone: A's rows must not leak, so A's cliques
		// stay exact after A changes too.
		tab.Build(g, comps[1])
		for _, u := range comps[0] {
			if tab.covers(u) {
				t.Fatalf("node %d of A still covered after the rebuild on B", u)
			}
		}
		var parents [][]int
		for _, q := range inA {
			if len(q) >= 4 && g.IsClique(q) && len(parents) < 4 {
				parents = append(parents, q)
			}
		}
		if len(parents) < 2 {
			t.Fatalf("weak fixture: %d cliques of four or more nodes in A", len(parents))
		}
		for _, q := range parents {
			g.AddWeight(q[1], q[2], 1)
		}
		checkPairTable(t, "rebuilt on B", g, &tab, append(append([][]int(nil), inA...), inB...))

		// Pairs consumed before the build, then a table over the union
		// of the cliques that held them, as Phase 2 builds one.
		var cover []int
		for _, q := range parents {
			g.RemoveEdge(q[0], q[len(q)-1])
			if g.Weight(q[1], q[2]) > 1 {
				g.AddWeight(q[1], q[2], -1)
			}
			cover = append(cover, q...)
		}
		tab.Build(g, cover)
		var subs [][]int
		for _, q := range parents {
			subs = append(subs, q, q[:2], q[1:], []int{q[0], q[len(q)-1]})
		}
		checkPairTable(t, "union of cliques with consumed pairs", g, &tab, subs)

		// The same table over a larger graph regrows its node arrays.
		big := New(g.NumNodes() + 200)
		for _, e := range g.Edges() {
			big.AddWeight(e.U, e.V, e.W)
		}
		for u := g.NumNodes(); u < big.NumNodes(); u++ {
			big.AddWeight(u, 0, 1)
			big.AddWeight(u, 1+rng.Intn(149), 2)
		}
		tab.Build(big, nil)
		if tab.Graph() != big {
			t.Fatal("Graph() does not report the rebuilt table's graph")
		}
		checkPairTable(t, "larger graph", big, &tab, append(cliquesWithin(big, rng, 0, big.NumNodes()), inA...))
	}

	// A sum past int32: {0,1} has two common neighbors at the weight
	// limit, so its MHH overflows a row entry and is left to the merge.
	g := New(5)
	g.AddWeight(0, 1, 1)
	for _, z := range []int{2, 3} {
		g.AddWeight(0, z, math.MaxInt32)
		g.AddWeight(1, z, math.MaxInt32)
	}
	g.AddWeight(3, 4, 1)
	var tab PairTable
	tab.Build(g, nil)
	if _, mhh := tab.Pair(0, 1); mhh != 2*math.MaxInt32 {
		t.Fatalf("MHH(0,1) = %d, want %d", mhh, 2*math.MaxInt32)
	}
	checkPairTable(t, "sums past int32", g, &tab, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {3, 4}})
}
