// Package features implements the clique feature representations used by
// the classifiers in this repository: MARIOH's multiplicity-aware features
// (Sect. III-D of the paper) and the structural feature sets of the
// SHyRe-Count and SHyRe-Motif baselines (Wang & Kleinberg, ICLR 2024),
// which deliberately ignore edge multiplicity.
//
// All featurizers consume a clique of the (possibly residual) projected
// graph plus a flag telling whether the clique is maximal, and emit a
// fixed-width float vector. Node- and edge-level feature families are
// summarized into five aggregates each — sum, mean, min, max, and standard
// deviation — exactly as the paper prescribes.
//
// The set is closed: the four built-ins below, listed by Names, are the
// only featurizers, and each is component-local (see Featurizer).
// Featurizers append to a caller's buffer: Compute with a per-worker
// Scratch reuses staging and output buffers, so scoring a clique in the
// steady state performs no heap allocations.
//
// Marioh reads two statistics per clique pair, ω and MHH, always off a
// graph.PairTable. A Scratch with a table attached (UseTable) reads them
// off that table, so a caller that scores many cliques of one unchanged
// graph — a round of the search, training-example extraction — computes
// each edge's MHH once; without one, the Scratch builds its own table
// over the clique for that one read. UsesPairTable tells whether a
// featurizer reads them at all. ComputeSub scores sub-cliques of one
// parent clique: Marioh reads their pairs off the parent's, and every
// other featurizer gets Compute on the built sub-clique. Every path gives
// Compute's values.
package features

import (
	"math"

	"marioh/internal/graph"
)

// Featurizer turns a clique into a fixed-width feature vector.
//
// A featurizer is component-local: the vector of a clique reads only
// graph state inside the clique's connected component, so it is the same
// in the component's Graph.Subgraph as in the whole graph. The round
// engine relies on it everywhere — its cache reuses an unchanged
// component's scores, the component search runs components on parallel
// workers, and a session scores a dirty component inside a subgraph.
// TestBuiltinsAreComponentLocal pins it for every built-in.
type Featurizer interface {
	// Name identifies the featurizer in logs and serialized models.
	Name() string
	// Dim is the feature vector width.
	Dim() int
	// AppendFeatures appends the Dim() values of clique Q of g to dst and
	// returns the extended slice; temporaries come from s. maximal tells
	// whether Q is a maximal clique of the graph it was enumerated from.
	AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, clique []int, maximal bool) []float64
}

// Scratch holds the reusable buffers of one feature-extraction worker. It
// must not be shared between goroutines. The zero value is ready to use.
type Scratch struct {
	node, edge1, edge2, edge3 []float64 // value-family staging
	out                       []float64 // Compute's result buffer
	omega, mhh                []int     // pairStats' result buffers
	own                       graph.PairTable
	table                     *graph.PairTable // see UseTable
}

// Table returns s's own pair table, for a caller to Build over the graph
// it is about to score and attach with UseTable, so that one worker keeps
// one table's node arrays. A read of a clique of any other graph than the
// attached table's rebuilds it over that clique, detaching it first if it
// is the attached one.
func (s *Scratch) Table() *graph.PairTable { return &s.own }

// UseTable makes s read pair statistics off t for cliques of t's graph
// until the next UseTable; nil detaches it. A clique of any other graph
// is read off s's own table, built over that clique for that one read.
// t may be shared by several Scratches, but no edge incident to a node
// it covers may change while one of them uses it.
func (s *Scratch) UseTable(t *graph.PairTable) { s.table = t }

// pairStats returns ω and MHH of every pair of q in AppendPairs order,
// off s's attached table when it was built over g, and otherwise off s's
// own table built over q alone, which is rebuilt on every such read
// because g may have changed since the last one.
func (s *Scratch) pairStats(g *graph.Graph, q []int) (omega, mhh []int) {
	t := s.table
	if t == nil || t.Graph() != g {
		if t == &s.own {
			s.table = nil
		}
		t = &s.own
		t.Build(g, q)
	}
	s.omega, s.mhh = t.AppendPairs(s.omega[:0], s.mhh[:0], q)
	return s.omega, s.mhh
}

// Compute evaluates f on the clique. The result lives in s's reusable
// output buffer and is only valid until the next Compute call with the
// same Scratch.
func Compute(f Featurizer, s *Scratch, g *graph.Graph, clique []int, maximal bool) []float64 {
	s.out = f.AppendFeatures(s.out[:0], s, g, clique, maximal)
	return s.out
}

// Parent is a clique whose sub-cliques ComputeSub scores. Featurizers
// that support it read the parent's pair statistics once — off the
// Scratch's attached table, or off one built over the parent — on the
// first ComputeSub call that needs them, and read every sub-clique's
// pairs off that copy: ω(u,v) and MHH(u,v) depend only on the pair and
// the graph, not on the clique they are read through. Neither the parent
// nor the graph may change between Reset and the last ComputeSub on it.
// The zero value is ready to use; one Parent per worker.
type Parent struct {
	q            []int
	read         bool
	omega, mhh   []int // the parent's pairs, once read
	nodes        []int // the sub-clique being scored
	subW, subMHH []int // its pairs, gathered from the parent's
}

// Reset makes q the parent clique of the ComputeSub calls that follow.
// q is kept by reference, not copied.
func (p *Parent) Reset(q []int) {
	p.q = q
	p.read = false
}

// subclique returns the sub-clique at the ascending positions pos of the
// parent, in a buffer owned by p that the next call overwrites.
func (p *Parent) subclique(pos []int) []int {
	p.nodes = p.nodes[:0]
	for _, i := range pos {
		p.nodes = append(p.nodes, p.q[i])
	}
	return p.nodes
}

// pairs returns the ω and MHH tables of the sub-clique at pos, gathered
// from the parent's, which are read on first use. The parent's are
// copied out of s's buffers so that other users of s between two
// ComputeSub calls cannot overwrite them.
func (p *Parent) pairs(g *graph.Graph, s *Scratch, pos []int) (omega, mhh []int) {
	if !p.read {
		w, m := s.pairStats(g, p.q)
		p.omega = append(p.omega[:0], w...)
		p.mhh = append(p.mhh[:0], m...)
		p.read = true
	}
	n := len(p.q)
	p.subW, p.subMHH = p.subW[:0], p.subMHH[:0]
	for a, i := range pos {
		for _, j := range pos[a+1:] {
			idx := graph.PairIndex(n, i, j)
			p.subW = append(p.subW, p.omega[idx])
			p.subMHH = append(p.subMHH, p.mhh[idx])
		}
	}
	return p.subW, p.subMHH
}

// pairFeaturizer is implemented by the featurizers that read ω and MHH
// pair statistics: they read a sub-clique's features off its parent's
// pairs, and a clique's off a Scratch's table when one is attached.
type pairFeaturizer interface {
	appendSubclique(dst []float64, s *Scratch, g *graph.Graph, p *Parent, pos []int, maximal bool) []float64
}

// UsesPairTable reports whether f reads pair statistics through its
// Scratch, so that attaching a graph.PairTable (Scratch.UseTable) can
// save it work. Featurizers for which it is false never read a table.
func UsesPairTable(f Featurizer) bool {
	_, ok := f.(pairFeaturizer)
	return ok
}

// ComputeSub evaluates f on the sub-clique of p's parent at the ascending
// positions pos and returns exactly what Compute returns on that
// sub-clique, in the same buffer. Marioh reads it off the parent's pairs;
// the other featurizers read no pairs and score the built sub-clique.
func ComputeSub(f Featurizer, s *Scratch, g *graph.Graph, p *Parent, pos []int, maximal bool) []float64 {
	if sf, ok := f.(pairFeaturizer); ok {
		s.out = sf.appendSubclique(s.out[:0], s, g, p, pos, maximal)
		return s.out
	}
	return Compute(f, s, g, p.subclique(pos), maximal)
}

// stage returns a zero-length slice with capacity ≥ n backed by *p, growing
// the backing array only when needed.
func stage(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, 0, n)
	}
	return (*p)[:0]
}

// aggStats appends the five-dimensional aggregate (sum, mean, min, max,
// std) of vals to dst and returns dst. Empty input yields five zeros.
func aggStats(dst []float64, vals []float64) []float64 {
	if len(vals) == 0 {
		return append(dst, 0, 0, 0, 0, 0)
	}
	sum, mn, mx := 0.0, vals[0], vals[0]
	for _, v := range vals {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(len(vals))
	varr := 0.0
	for _, v := range vals {
		d := v - mean
		varr += d * d
	}
	std := math.Sqrt(varr / float64(len(vals)))
	return append(dst, sum, mean, mn, mx, std)
}

// Marioh is the multiplicity-aware featurizer of the MARIOH paper:
//
//   - node level: weighted degree of each clique node              → 5 dims
//   - edge level: ω(u,v), MHH(u,v), MHH(u,v)/ω(u,v) per clique edge → 15 dims
//   - clique level: |Q|, clique cut ratio, maximality indicator    → 3 dims
//
// for a total of 23 dimensions.
type Marioh struct{}

// Name implements Featurizer.
func (Marioh) Name() string { return "marioh" }

// Dim implements Featurizer.
func (Marioh) Dim() int { return 23 }

// AppendFeatures implements Featurizer.
func (Marioh) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	pairW, pairMHH := s.pairStats(g, q)
	return appendMarioh(dst, s, g, q, pairW, pairMHH, maximal)
}

// appendSubclique implements pairFeaturizer. A parent of three nodes or
// fewer is not read whole: its proper sub-cliques are pairs, each read
// directly.
func (m Marioh) appendSubclique(dst []float64, s *Scratch, g *graph.Graph, p *Parent, pos []int, maximal bool) []float64 {
	if len(p.q) < 4 {
		return m.AppendFeatures(dst, s, g, p.subclique(pos), maximal)
	}
	pairW, pairMHH := p.pairs(g, s, pos)
	return appendMarioh(dst, s, g, p.subclique(pos), pairW, pairMHH, maximal)
}

// appendMarioh appends the 23 Marioh dimensions of clique q, given its
// pair statistics in AppendPairs order.
func appendMarioh(dst []float64, s *Scratch, g *graph.Graph, q []int, pairW, pairMHH []int, maximal bool) []float64 {
	nodeVals := stage(&s.node, len(q))
	sumWDeg := 0.0
	for _, u := range q {
		wd := float64(g.WeightedDegree(u))
		nodeVals = append(nodeVals, wd)
		sumWDeg += wd
	}
	dst = aggStats(dst, nodeVals)

	nEdges := len(q) * (len(q) - 1) / 2
	omega := stage(&s.edge1, nEdges)
	mhh := stage(&s.edge2, nEdges)
	ratio := stage(&s.edge3, nEdges)
	internal := 0.0
	for p := range pairW {
		w := float64(pairW[p])
		m := float64(pairMHH[p])
		omega = append(omega, w)
		mhh = append(mhh, m)
		if w > 0 {
			ratio = append(ratio, m/w)
		} else {
			ratio = append(ratio, 0)
		}
		internal += w
	}
	dst = aggStats(dst, omega)
	dst = aggStats(dst, mhh)
	dst = aggStats(dst, ratio)

	dst = append(dst, float64(len(q)))
	dst = append(dst, cutRatio(internal, sumWDeg))
	if maximal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return dst
}

// cutRatio is the clique cut ratio: the proportion of edge multiplicity
// inside the clique relative to the total edge multiplicity touching the
// clique's nodes. Internal edges are counted twice in the weighted-degree
// sum, so the denominator subtracts one copy to count each incident edge
// exactly once.
func cutRatio(internal, sumWDeg float64) float64 {
	den := sumWDeg - internal
	if den <= 0 {
		return 1
	}
	return internal / den
}

// ShyreCount reproduces the multiplicity-blind structural ("count")
// features of SHyRe-Count:
//
//   - clique size and maximality indicator                → 2 dims
//   - unweighted node degrees                             → 5 dims
//   - per-edge common-neighbor counts                     → 5 dims
//   - unweighted cut ratio                                → 1 dim
//
// for a total of 13 dimensions. MARIOH-M plugs this featurizer into the
// MARIOH search to ablate the multiplicity-aware features.
type ShyreCount struct{}

// Name implements Featurizer.
func (ShyreCount) Name() string { return "shyre-count" }

// Dim implements Featurizer.
func (ShyreCount) Dim() int { return 13 }

// AppendFeatures implements Featurizer.
func (ShyreCount) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	cn := commonNeighborCounts(stage(&s.edge1, len(q)*(len(q)-1)/2), g, q)
	return appendShyreCount(dst, s, g, q, maximal, cn)
}

// appendShyreCount appends the 13 ShyreCount dimensions, taking the
// per-edge common-neighbor counts from the caller so ShyreMotif can share
// one computation between its triangle and square families.
func appendShyreCount(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool, cn []float64) []float64 {
	dst = append(dst, float64(len(q)))
	if maximal {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	deg := stage(&s.node, len(q))
	sumDeg := 0.0
	for _, u := range q {
		d := float64(g.Degree(u))
		deg = append(deg, d)
		sumDeg += d
	}
	dst = aggStats(dst, deg)
	dst = aggStats(dst, cn)
	internal := float64(len(q) * (len(q) - 1) / 2)
	dst = append(dst, cutRatio(internal, sumDeg))
	return dst
}

// commonNeighborCounts appends |N(q_i) ∩ N(q_j)| for every clique pair to
// dst. CountCommonNeighbors avoids materializing (and sorting) the
// intersection just to take its length.
func commonNeighborCounts(dst []float64, g *graph.Graph, q []int) []float64 {
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			dst = append(dst, float64(g.CountCommonNeighbors(q[i], q[j])))
		}
	}
	return dst
}

// ShyreMotif extends ShyreCount with local motif statistics, following
// SHyRe-Motif's use of triangle and square (4-cycle) patterns around the
// candidate clique:
//
//   - per-edge triangle counts (= common neighbors)        → shared with count
//   - per-edge 4-cycle counts C(cn, 2) through each edge   → 5 extra dims
//
// for a total of 18 dimensions. The common-neighbor counts are computed
// once and shared between the two motif families.
type ShyreMotif struct{}

// Name implements Featurizer.
func (ShyreMotif) Name() string { return "shyre-motif" }

// Dim implements Featurizer.
func (ShyreMotif) Dim() int { return 18 }

// AppendFeatures implements Featurizer.
func (ShyreMotif) AppendFeatures(dst []float64, s *Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	nEdges := len(q) * (len(q) - 1) / 2
	cn := commonNeighborCounts(stage(&s.edge1, nEdges), g, q)
	dst = appendShyreCount(dst, s, g, q, maximal, cn)
	squares := stage(&s.edge2, nEdges)
	for _, c := range cn {
		squares = append(squares, c*(c-1)/2)
	}
	return aggStats(dst, squares)
}

// builtins are the featurizers, in their canonical order.
var builtins = []Featurizer{Marioh{}, MariohNoMHH{}, ShyreCount{}, ShyreMotif{}}

// Names lists the featurizers' names in their canonical order.
func Names() []string {
	out := make([]string, len(builtins))
	for i, f := range builtins {
		out[i] = f.Name()
	}
	return out
}

// ByName returns the featurizer with the given name.
func ByName(name string) (Featurizer, bool) {
	for _, f := range builtins {
		if f.Name() == name {
			return f, true
		}
	}
	return nil, false
}
