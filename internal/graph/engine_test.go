package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// refGraph is a map-backed reference implementation of the adjacency
// semantics, used to property-test the sorted-slice + bitset engine.
type refGraph struct {
	adj []map[int]int
}

func newRef(n int) *refGraph {
	return &refGraph{adj: make([]map[int]int, n)}
}

func (r *refGraph) ensure(n int) {
	for len(r.adj) < n {
		r.adj = append(r.adj, nil)
	}
}

func (r *refGraph) addWeight(u, v, delta int) {
	if r.adj[u] == nil {
		r.adj[u] = map[int]int{}
	}
	if r.adj[v] == nil {
		r.adj[v] = map[int]int{}
	}
	nw := r.adj[u][v] + delta
	if nw == 0 {
		delete(r.adj[u], v)
		delete(r.adj[v], u)
	} else {
		r.adj[u][v] = nw
		r.adj[v][u] = nw
	}
}

func (r *refGraph) weight(u, v int) int { return r.adj[u][v] }

func (r *refGraph) sumMin(u, v int) int {
	s := 0
	for z, wa := range r.adj[u] {
		if z == u || z == v {
			continue
		}
		if wb, ok := r.adj[v][z]; ok {
			if wa < wb {
				s += wa
			} else {
				s += wb
			}
		}
	}
	return s
}

// TestEngineMatchesMapReference drives the hybrid engine and a map-backed
// reference through the same random mutation sequence — including hub nodes
// that cross the bitset-row threshold in both directions and EnsureNodes
// growth — and checks every read primitive agrees.
func TestEngineMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 80
	g := New(n)
	ref := newRef(n)

	// A designated hub so the bitset threshold (64 at this size) is crossed
	// and re-crossed as edges are added and removed.
	const hub = 0
	for step := 0; step < 6000; step++ {
		if step == 2000 {
			// Grow the node set mid-run: existing bitset rows must widen.
			n = 140
			g.EnsureNodes(n)
			ref.ensure(n)
		}
		var u, v int
		switch step % 4 {
		case 0, 1: // hub edge: drives the degree past the threshold
			u = hub
			v = 1 + rng.Intn(n-1)
		default:
			u = rng.Intn(n)
			v = rng.Intn(n)
			if u == v {
				continue
			}
		}
		switch rng.Intn(5) {
		case 0: // remove
			if w := g.Weight(u, v); w > 0 {
				g.RemoveEdge(u, v)
				ref.addWeight(u, v, -w)
			}
		case 1: // decrement
			if g.Weight(u, v) > 0 {
				g.AddWeight(u, v, -1)
				ref.addWeight(u, v, -1)
			}
		default: // add
			d := 1 + rng.Intn(3)
			g.AddWeight(u, v, d)
			ref.addWeight(u, v, d)
		}
	}

	if g.Degree(hub) < bitsetDegThreshold(n) {
		t.Fatalf("test did not push the hub (deg %d) past the bitset threshold %d",
			g.Degree(hub), bitsetDegThreshold(n))
	}
	if g.bits[hub] == nil {
		t.Fatal("hub has no bitset row despite super-threshold degree")
	}

	// Every pair: HasEdge, Weight, intersection primitives.
	totalW, numE := 0, 0
	for u := 0; u < n; u++ {
		wantDeg, wantWDeg := len(ref.adj[u]), 0
		for _, w := range ref.adj[u] {
			wantWDeg += w
		}
		if g.Degree(u) != wantDeg || g.WeightedDegree(u) != wantWDeg {
			t.Fatalf("node %d: degree %d/%d weighted %d/%d",
				u, g.Degree(u), wantDeg, g.WeightedDegree(u), wantWDeg)
		}
		for v := u + 1; v < n; v++ {
			want := ref.weight(u, v)
			if got := g.Weight(u, v); got != want {
				t.Fatalf("Weight(%d,%d) = %d, want %d", u, v, got, want)
			}
			if got := g.HasEdge(u, v); got != (want > 0) {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want > 0)
			}
			if want > 0 {
				totalW += want
				numE++
			}
			if got, want := g.SumMinCommonWeight(u, v), ref.sumMin(u, v); got != want {
				t.Fatalf("SumMinCommonWeight(%d,%d) = %d, want %d", u, v, got, want)
			}
			cn := g.CommonNeighbors(u, v)
			if got := g.CountCommonNeighbors(u, v); got != len(cn) {
				t.Fatalf("CountCommonNeighbors(%d,%d) = %d, want %d", u, v, got, len(cn))
			}
			for _, z := range cn {
				if ref.weight(u, z) == 0 || ref.weight(v, z) == 0 {
					t.Fatalf("CommonNeighbors(%d,%d) contains non-common %d", u, v, z)
				}
			}
		}
	}
	if g.NumEdges() != numE || g.TotalWeight() != totalW {
		t.Fatalf("counters: edges %d/%d weight %d/%d", g.NumEdges(), numE, g.TotalWeight(), totalW)
	}
}

// TestBitsetRowLifecycle pins the promote/demote hysteresis: a row appears
// at the threshold, survives down to threshold/2, and HasEdge stays correct
// throughout.
func TestBitsetRowLifecycle(t *testing.T) {
	n := 200
	g := New(n)
	th := bitsetDegThreshold(n)
	for v := 1; v <= th; v++ {
		g.AddWeight(0, v, 1)
	}
	if g.bits[0] == nil {
		t.Fatalf("no bitset row at degree %d (threshold %d)", g.Degree(0), th)
	}
	for v := 1; v <= th; v++ {
		if !g.HasEdge(0, v) || !g.HasEdge(v, 0) {
			t.Fatalf("edge {0,%d} lost after promotion", v)
		}
	}
	// Remove edges until the degree falls below the demotion point: the
	// row must survive down to th/2 and then be dropped.
	for v := th; g.Degree(0) >= th/2; v-- {
		if g.Degree(0) > th/2 && g.bits[0] == nil {
			t.Fatalf("row dropped early at degree %d (drop point %d)", g.Degree(0), th/2)
		}
		g.RemoveEdge(0, v)
	}
	if g.bits[0] != nil {
		t.Fatalf("row not dropped at degree %d (drop point %d)", g.Degree(0), th/2)
	}
	for v := 1; v < th/2; v++ {
		if !g.HasEdge(0, v) {
			t.Fatalf("edge {0,%d} lost after demotion", v)
		}
	}
}

// TestEnsureNodesWidensBitsetRows: growing the node set must widen existing
// dense rows so edges to the new nodes are representable.
func TestEnsureNodesWidensBitsetRows(t *testing.T) {
	g := New(100)
	for v := 1; v <= 70; v++ {
		g.AddWeight(0, v, 1)
	}
	if g.bits[0] == nil {
		t.Fatal("expected a bitset row on the hub")
	}
	g.EnsureNodes(500)
	g.AddWeight(0, 400, 2)
	if !g.HasEdge(0, 400) || !g.HasEdge(400, 0) || g.Weight(0, 400) != 2 {
		t.Fatal("edge to post-growth node broken")
	}
	if g.HasEdge(0, 499) {
		t.Fatal("phantom edge to post-growth node")
	}
}

// TestMaximalCliquesWithHub exercises the dense-row path of the
// Bron–Kerbosch seed construction (a node above the bitset threshold inside
// a clique neighborhood).
func TestMaximalCliquesWithHub(t *testing.T) {
	n := 120
	g := New(n)
	// Hub adjacent to everyone; nodes 1..5 form a clique among themselves.
	for v := 1; v < n; v++ {
		g.AddWeight(0, v, 1)
	}
	for i := 1; i <= 5; i++ {
		for j := i + 1; j <= 5; j++ {
			g.AddWeight(i, j, 1)
		}
	}
	if g.bits[0] == nil {
		t.Fatal("hub should carry a bitset row")
	}
	cliques := g.MaximalCliques(3)
	want := []int{0, 1, 2, 3, 4, 5}
	found := false
	for _, q := range cliques {
		if reflect.DeepEqual(q, want) {
			found = true
		}
		if !g.IsClique(q) {
			t.Fatalf("%v is not a clique", q)
		}
	}
	if !found {
		t.Fatalf("missing hub clique %v in %v", want, cliques)
	}
}

// TestBucketQueueStalePosition forces the defensive linear-scan fallback of
// removeFromBucket by corrupting the tracked position, and checks the queue
// still drains correctly.
func TestBucketQueueStalePosition(t *testing.T) {
	q := newBucketQueue([]int{2, 2, 2, 2})
	// All four nodes sit in bucket 2. Corrupt node 3's tracked position so
	// removal must fall back to scanning.
	q.pos[3] = 0 // actually at index 3
	q.decrease(3)
	if q.deg[3] != 1 {
		t.Fatalf("deg[3] = %d after decrease, want 1", q.deg[3])
	}
	for _, u := range q.buckets[2] {
		if u == 3 {
			t.Fatal("node 3 still in bucket 2 after stale-position removal")
		}
	}
	// A decrease for a node whose stale position points at an empty slot.
	q.pos[2] = 17
	q.decrease(2)
	if q.deg[2] != 1 {
		t.Fatalf("deg[2] = %d after decrease, want 1", q.deg[2])
	}
	// Drain: the two degree-1 nodes first, then the rest; every node once.
	var order []int
	var degs []int
	for {
		u, d, ok := q.popMin()
		if !ok {
			break
		}
		order = append(order, u)
		degs = append(degs, d)
	}
	if len(order) != 4 {
		t.Fatalf("drained %d nodes, want 4: %v", len(order), order)
	}
	seen := map[int]bool{}
	for _, u := range order {
		if seen[u] {
			t.Fatalf("node %d popped twice: %v", u, order)
		}
		seen[u] = true
	}
	if degs[0] != 1 || degs[1] != 1 || degs[2] != 2 || degs[3] != 2 {
		t.Fatalf("pop degrees %v, want [1 1 2 2]", degs)
	}
}

// TestDegeneracyOrderingIsDeterministic: with sorted adjacency the ordering
// must be identical across runs and across clones.
func TestDegeneracyOrderingIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(60)
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u != v {
			g.AddWeight(u, v, 1)
		}
	}
	o1, d1 := g.DegeneracyOrdering()
	o2, d2 := g.Clone().DegeneracyOrdering()
	if d1 != d2 || !reflect.DeepEqual(o1, o2) {
		t.Fatal("degeneracy ordering differs between identical graphs")
	}
}
