package graph

import (
	"math/bits"
	"slices"
	"sort"
)

// DegeneracyOrdering returns the nodes in a degeneracy ordering (repeatedly
// removing a minimum-degree node) together with the graph's degeneracy. The
// ordering makes Bron–Kerbosch run in O(d · n · 3^(d/3)) for degeneracy d.
func (g *Graph) DegeneracyOrdering() (order []int, degeneracy int) {
	n := len(g.nbrs)
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = len(g.nbrs[u])
	}
	q := newBucketQueue(deg)
	order = make([]int, 0, n)
	for {
		u, d, ok := q.popMin()
		if !ok {
			break
		}
		order = append(order, u)
		if d > degeneracy {
			degeneracy = d
		}
		for _, v := range g.nbrs[u] {
			if !q.isRemoved(int(v)) {
				q.decrease(int(v))
			}
		}
	}
	return order, degeneracy
}

// MaximalCliques enumerates every maximal clique with at least minSize
// nodes, using Bron–Kerbosch with max-degree pivoting over a degeneracy
// ordering. Cliques are returned as sorted node slices in a deterministic
// order. Isolated nodes never appear (a clique needs ≥ 2 nodes to matter for
// reconstruction, and minSize is clamped to ≥ 1).
func (g *Graph) MaximalCliques(minSize int) [][]int {
	return g.MaximalCliquesLimit(minSize, -1)
}

// MaximalCliquesLimit behaves like MaximalCliques but stops after emitting
// limit cliques (limit < 0 means no limit).
func (g *Graph) MaximalCliquesLimit(minSize, limit int) [][]int {
	var out [][]int
	g.EachMaximalClique(minSize, func(c []int) bool {
		cc := make([]int, len(c))
		copy(cc, c)
		out = append(out, cc)
		return limit < 0 || len(out) < limit
	})
	slices.SortFunc(out, slices.Compare)
	return out
}

// EachMaximalClique calls fn with every maximal clique of size ≥ minSize.
// The slice passed to fn is reused between calls; copy it to retain it.
// Enumeration stops early when fn returns false. fn must not mutate the
// graph.
//
// The enumeration is the bitset form of Bron–Kerbosch over a degeneracy
// ordering: each seed vertex u spans a local universe N(u) (at most the
// degeneracy many P-candidates), over which the P and X sets are dense
// bitsets and the pivot is chosen by word-level popcounts of adj ∩ P. All
// per-seed buffers are reused, so enumeration allocates O(1) amortized
// memory per seed instead of per recursive call.
func (g *Graph) EachMaximalClique(minSize int, fn func(clique []int) bool) {
	s := g.CliqueSeeds(minSize)
	var sc CliqueEnum
	for _, u := range s.order {
		if !s.EnumSeed(u, &sc, fn) {
			return
		}
	}
}

// CliqueSeeder exposes the per-seed structure of the Bron–Kerbosch
// enumeration: the nodes are ranked once, in degeneracy order, and each
// node's expansion over its later-ranked neighbors — an independent
// subtree of the search — can then be run on its own, with
// caller-provided scratch. That per-node granularity is the unit of work
// of the round's enumerate-and-score loop in internal/core, whose workers
// claim seeds from a shared counter.
//
// Under any total order of the nodes, each maximal clique is emitted by
// exactly one seed, its lowest-ranked node, and a seed's subtree never
// leaves its connected component. So the seeds of a union of whole
// components, run in any order or concurrently (one CliqueEnum per
// goroutine), emit exactly those components' maximal cliques, each once;
// EachMaximalClique runs every seed in rank order. The degeneracy order
// only bounds a seed's work, and the ranks stay valid while the graph
// only loses edges: a seed's later neighbors now were later neighbors
// when the ranks were taken, so the bound still holds. The graph must not
// be mutated while a seed runs.
type CliqueSeeder struct {
	g       *Graph
	minSize int
	order   []int
	rank    []int
}

// CliqueSeeds computes the degeneracy ordering and returns a seeder over
// it. minSize is clamped to ≥ 1, matching MaximalCliques.
func (g *Graph) CliqueSeeds(minSize int) *CliqueSeeder {
	if minSize < 1 {
		minSize = 1
	}
	order, _ := g.DegeneracyOrdering()
	rank := make([]int, len(g.nbrs))
	for i, u := range order {
		rank[u] = i
	}
	return &CliqueSeeder{g: g, minSize: minSize, order: order, rank: rank}
}

// CliqueEnum is the reusable scratch of one enumeration worker. The zero
// value is ready to use; a CliqueEnum must not be shared between
// concurrently running EnumSeed calls.
type CliqueEnum struct {
	e bkEnum
}

// EnumSeed enumerates the maximal cliques whose lowest-ranked node is u —
// the Bron–Kerbosch subtree rooted at u — calling fn for each exactly as
// EachMaximalClique does (the slice is reused; copy it to retain it). It
// reports whether enumeration ran to completion — false means fn
// returned false.
func (s *CliqueSeeder) EnumSeed(u int, sc *CliqueEnum, fn func(clique []int) bool) bool {
	e := &sc.e
	e.g = s.g
	e.minSize = s.minSize
	e.fn = fn
	e.stopped = false
	e.seed(u, s.rank)
	e.fn = nil
	return !e.stopped
}

// bkEnum holds the reusable state of one EachMaximalClique run.
type bkEnum struct {
	g       *Graph
	minSize int
	fn      func([]int) bool
	stopped bool

	r    []int // current clique, original node ids
	emit []int // sorted copy handed to fn

	// Per-seed local universe: ids maps local index → original id, adj is a
	// flat m×w bitset adjacency matrix over the universe, w words per row.
	ids    []int32
	adj    []uint64
	w      int
	p0, x0 []uint64
	levels [][]uint64 // per-depth cand|np|nx scratch, 3w words each
}

func (e *bkEnum) adjRow(j int) []uint64 { return e.adj[j*e.w : (j+1)*e.w] }

// level returns the scratch block for the given recursion depth, growing it
// to 3w words if a previous seed left it smaller.
func (e *bkEnum) level(d int) []uint64 {
	for len(e.levels) <= d {
		e.levels = append(e.levels, nil)
	}
	if cap(e.levels[d]) < 3*e.w {
		e.levels[d] = make([]uint64, 3*e.w)
	}
	return e.levels[d][:3*e.w]
}

// emitR hands the current clique to fn as a sorted copy in a reused buffer.
func (e *bkEnum) emitR() {
	e.emit = append(e.emit[:0], e.r...)
	sort.Ints(e.emit)
	if !e.fn(e.emit) {
		e.stopped = true
	}
}

// seed runs Bron–Kerbosch rooted at u: R = {u}, P = later neighbors in the
// degeneracy ordering, X = earlier ones, both as bitsets over N(u).
func (e *bkEnum) seed(u int, rank []int) {
	g := e.g
	uni := g.nbrs[u]
	m := len(uni)
	e.r = append(e.r[:0], u)
	if m == 0 {
		if e.minSize <= 1 {
			e.emitR()
		}
		return
	}
	w := bitsetWords(m)
	e.w = w
	e.ids = uni
	if cap(e.adj) < m*w {
		e.adj = make([]uint64, m*w)
	}
	e.adj = e.adj[:m*w]
	bitsetZero(e.adj)
	// Row a = neighbors of uni[a] inside the universe: intersect the
	// neighbor list with uni by sorted merge, or via the node's dense row.
	for a := 0; a < m; a++ {
		ida := int(uni[a])
		row := e.adjRow(a)
		if rbits := g.bits[ida]; rbits != nil {
			for j, z := range uni {
				if bitsetHas(rbits, int(z)) {
					bitsetSet(row, j)
				}
			}
			continue
		}
		nb := g.nbrs[ida]
		i, j := 0, 0
		for i < len(nb) && j < m {
			switch {
			case nb[i] < uni[j]:
				i++
			case nb[i] > uni[j]:
				j++
			default:
				bitsetSet(row, j)
				i++
				j++
			}
		}
	}
	if cap(e.p0) < w {
		e.p0 = make([]uint64, w)
		e.x0 = make([]uint64, w)
	}
	p, x := e.p0[:w], e.x0[:w]
	bitsetZero(p)
	bitsetZero(x)
	ru := rank[u]
	for j, v := range uni {
		if rank[int(v)] > ru {
			bitsetSet(p, j)
		} else {
			bitsetSet(x, j)
		}
	}
	e.expand(0, p, x)
}

// expand is the recursive Bron–Kerbosch step on bitset P and X. Both are
// mutated in place; the caller rebuilds its own copies per candidate.
func (e *bkEnum) expand(depth int, p, x []uint64) {
	if e.stopped {
		return
	}
	if bitsetEmpty(p) {
		if bitsetEmpty(x) && len(e.r) >= e.minSize {
			e.emitR()
		}
		return
	}
	w := e.w
	// Pivot: the vertex of P ∪ X with the most neighbors in P, counted with
	// word-level popcounts; ties break to the lowest local index.
	best, pivot := -1, 0
	for wi := 0; wi < w; wi++ {
		merged := p[wi] | x[wi]
		base := wi << 6
		for merged != 0 {
			j := base + bits.TrailingZeros64(merged)
			merged &= merged - 1
			if cnt := bitsetPopcountAnd(e.adjRow(j), p); cnt > best {
				best, pivot = cnt, j
			}
		}
	}
	lv := e.level(depth)
	cand, np, nx := lv[:w], lv[w:2*w], lv[2*w:]
	bitsetAndNotInto(cand, p, e.adjRow(pivot))
	for wi := 0; wi < w; wi++ {
		cw := cand[wi]
		base := wi << 6
		for cw != 0 {
			j := base + bits.TrailingZeros64(cw)
			cw &= cw - 1
			row := e.adjRow(j)
			bitsetAndInto(np, p, row)
			bitsetAndInto(nx, x, row)
			e.r = append(e.r, int(e.ids[j]))
			e.expand(depth+1, np, nx)
			e.r = e.r[:len(e.r)-1]
			if e.stopped {
				return
			}
			bitsetClear(p, j)
			bitsetSet(x, j)
		}
	}
}

// KCliques enumerates all cliques of exactly k nodes (not necessarily
// maximal), as sorted node slices in lexicographic order. If limit ≥ 0,
// enumeration stops after limit cliques. This powers the CFinder
// (k-clique percolation) baseline.
func (g *Graph) KCliques(k, limit int) [][]int {
	if k < 1 {
		return nil
	}
	var out [][]int
	cur := make([]int, 0, k)
	// rec extends cur with nodes from cands (all adjacent to every node in
	// cur, all larger than the last node of cur). Returns false to stop.
	var rec func(cands []int) bool
	rec = func(cands []int) bool {
		if len(cur) == k {
			c := make([]int, k)
			copy(c, cur)
			out = append(out, c)
			return limit < 0 || len(out) < limit
		}
		for i, v := range cands {
			if len(cands)-i < k-len(cur) {
				return true // not enough candidates remain
			}
			cur = append(cur, v)
			var next []int
			for _, w := range cands[i+1:] {
				if g.HasEdge(v, w) {
					next = append(next, w)
				}
			}
			ok := rec(next)
			cur = cur[:len(cur)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	all := make([]int, 0, len(g.nbrs))
	for u := 0; u < len(g.nbrs); u++ {
		if len(g.nbrs[u]) >= k-1 {
			all = append(all, u)
		}
	}
	rec(all)
	return out
}
