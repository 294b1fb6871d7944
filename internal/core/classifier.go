// Package core implements MARIOH — Multiplicity-Aware Hypergraph
// Reconstruction (Lee, Lee & Shin, ICDE 2025) — the primary contribution of
// the reproduced paper. It contains the multiplicity-aware classifier
// (Sect. III-D), the theoretically-guaranteed size-2 filtering step
// (Sect. III-B, Algorithm 2), the bidirectional clique search
// (Sect. III-C, Algorithm 3), and the outer reconstruction loop
// (Algorithm 1), plus the three ablation variants MARIOH-M, MARIOH-F and
// MARIOH-B evaluated in the paper's Tables II and III.
package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/mlp"
)

// Model is the trained multiplicity-aware classifier M: it scores the
// likelihood that a clique of a projected graph is a true hyperedge.
type Model struct {
	Feat features.Featurizer
	Std  *mlp.Standardizer
	Net  *mlp.Net

	// Stats records where training time went (Fig. 6's "Load & Sample" and
	// "Train" segments).
	Stats TrainStats
}

// TrainStats is the wall-clock breakdown of Train.
type TrainStats struct {
	SampleTime time.Duration // feature extraction + negative sampling
	TrainTime  time.Duration // MLP optimization
	Positives  int
	Negatives  int
}

// TrainOptions configure classifier training.
type TrainOptions struct {
	// Featurizer defaults to the multiplicity-aware features.Marioh.
	Featurizer features.Featurizer
	// Hidden layer widths; default [32, 16].
	Hidden []int
	// Epochs for the MLP; default 60.
	Epochs int
	// SupervisionRatio uses only this fraction of the source hyperedges as
	// supervision (Table VI's semi-supervised setting). Default 1.0.
	SupervisionRatio float64
	// NegativeRatio is the number of negatives sampled per positive;
	// default 1.
	NegativeRatio float64
	Seed          int64
}

// negativeCliqueLimit caps the maximal cliques of the source graph that
// BuildExamples enumerates as negative candidates.
const negativeCliqueLimit = 200000

func (o *TrainOptions) defaults() {
	if o.Featurizer == nil {
		o.Featurizer = features.Marioh{}
	}
	if len(o.Hidden) == 0 {
		o.Hidden = []int{32, 16}
	}
	if o.Epochs <= 0 {
		o.Epochs = 60
	}
	if o.SupervisionRatio <= 0 || o.SupervisionRatio > 1 {
		o.SupervisionRatio = 1
	}
	if o.NegativeRatio <= 0 {
		o.NegativeRatio = 1
	}
}

// Train fits a classifier on the source pair (G^S, H^S): each unique
// hyperedge of H^S is a positive clique example; negatives are maximal
// cliques of G^S that are not hyperedges plus random sub-cliques of maximal
// cliques that are not hyperedges, sampled to NegativeRatio× the positive
// count (the negative-sampling strategy the paper defers to its appendix).
func Train(gSrc *graph.Graph, hSrc *hypergraph.Hypergraph, opts TrainOptions) *Model {
	m, _ := TrainContext(context.Background(), gSrc, hSrc, opts)
	return m
}

// TrainContext is Train with cancellation: ctx is checked between the
// sampling and optimization stages and once per training epoch. On
// cancellation it returns (nil, ctx.Err()) — a partially trained model is
// never handed out.
func TrainContext(ctx context.Context, gSrc *graph.Graph, hSrc *hypergraph.Hypergraph, opts TrainOptions) (*Model, error) {
	opts.defaults()
	m := &Model{Feat: opts.Featurizer}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now() //lint:randsource stage timing recorded in Model.Stats, never in reconstruction output
	X, y, nPos := BuildExamples(gSrc, hSrc, opts)
	m.Stats.Positives = nPos
	m.Stats.Negatives = len(X) - nPos
	m.Stats.SampleTime = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t1 := time.Now() //lint:randsource stage timing recorded in Model.Stats, never in reconstruction output
	m.Std = mlp.FitStandardizer(X)
	m.Std.TransformAll(X)
	m.Net = mlp.New(m.Feat.Dim(), opts.Hidden, opts.Seed+1)
	m.Net.Train(X, y, mlp.TrainOptions{
		Epochs: opts.Epochs, Seed: opts.Seed + 2,
		Stop: func() bool { return ctx.Err() != nil },
	})
	m.Stats.TrainTime = time.Since(t1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildExamples assembles a labeled clique training (or evaluation) set
// from a projected graph and its ground-truth hypergraph: positives are (a
// SupervisionRatio fraction of) the unique hyperedges; negatives are
// non-hyperedge maximal cliques topped up with random non-hyperedge
// sub-cliques, NegativeRatio× the positive count. Returns the raw
// (unstandardized) feature matrix, the 0/1 labels, and the positive count
// (positives come first).
func BuildExamples(gSrc *graph.Graph, hSrc *hypergraph.Hypergraph, opts TrainOptions) (X [][]float64, y []float64, nPos int) {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	feat := opts.Featurizer
	// One shared Scratch across all examples: Compute's reusable buffers
	// make extraction allocation-free per call, so only the retained copy
	// of each vector is allocated. gSrc does not change here, so every
	// example reads its pairs off one table over all of gSrc, the
	// Scratch's own.
	var sc features.Scratch
	if features.UsesPairTable(feat) {
		t := sc.Table()
		t.Build(gSrc, nil)
		sc.UseTable(t)
	}
	extract := func(q []int, maximal bool) []float64 {
		return append([]float64(nil), features.Compute(feat, &sc, gSrc, q, maximal)...)
	}

	posEdges := hSrc.UniqueEdges()
	if opts.SupervisionRatio < 1 {
		rng.Shuffle(len(posEdges), func(i, j int) { posEdges[i], posEdges[j] = posEdges[j], posEdges[i] })
		keep := int(float64(len(posEdges)) * opts.SupervisionRatio)
		if keep < 1 {
			keep = 1
		}
		posEdges = posEdges[:keep]
	}
	for _, e := range posEdges {
		X = append(X, extract(e, isMaximalClique(gSrc, e)))
		y = append(y, 1)
	}

	want := int(float64(len(posEdges)) * opts.NegativeRatio)
	maximal := gSrc.MaximalCliquesLimit(2, negativeCliqueLimit)
	var negs [][]float64
	for _, q := range maximal {
		if len(negs) >= want {
			break
		}
		if !hSrc.Contains(q) {
			negs = append(negs, extract(q, true))
		}
	}
	// Top up with random sub-cliques of random maximal cliques.
	var ps PermSampler
	for attempts := 0; len(negs) < want && attempts < 50*want+100 && len(maximal) > 0; attempts++ {
		q := maximal[rng.Intn(len(maximal))]
		if len(q) < 3 {
			continue
		}
		k := 2 + rng.Intn(len(q)-2) // k in [2, |q|-1]
		sub := ps.Sample(q, k, rng)
		if !hSrc.Contains(sub) {
			negs = append(negs, extract(sub, false))
		}
	}
	for _, f := range negs {
		X = append(X, f)
		y = append(y, 0)
	}
	return X, y, len(posEdges)
}

// Score returns the classifier's probability that clique q of g is a true
// hyperedge. It is safe for concurrent use and, in the steady state,
// allocation-free: its buffers come from a pool shared by all models.
func (m *Model) Score(g *graph.Graph, q []int, maximal bool) float64 {
	sc := scorers.Get().(*scorer)
	defer scorers.Put(sc)
	return m.scoreScratch(g, q, maximal, sc)
}

// scorers recycles Score's buffers. A fresh scorer grows its pair
// table's node-indexed arrays to the graph's node count.
var scorers = sync.Pool{New: func() any { return new(scorer) }}

// scorer bundles the per-worker reusable buffers of the scoring hot path:
// feature staging and the worker's pair table (feat.Table; see
// roundScratch for who builds it over what), the MLP activations, Phase
// 2's parent clique and subset sampler, and, for the components the
// worker searches, the nodes Phase 2's table covers and Phase 2's draw
// buffer. With one scorer per worker, steady-state clique scoring
// performs zero heap allocations. A scorer must not be shared between
// goroutines.
type scorer struct {
	feat   features.Scratch
	fwd    mlp.Scratch
	parent features.Parent
	perm   PermSampler
	cover  []int
	draws  subDraws
}

// scoreScratch is Score with caller-owned buffers; bit-identical results.
func (m *Model) scoreScratch(g *graph.Graph, q []int, maximal bool, sc *scorer) float64 {
	return m.forward(features.Compute(m.Feat, &sc.feat, g, q, maximal), sc)
}

// scoreSub scores the sub-clique at the ascending positions pos of
// sc.parent as non-maximal; bit-identical to scoreScratch on that
// sub-clique.
func (m *Model) scoreSub(g *graph.Graph, pos []int, sc *scorer) float64 {
	return m.forward(features.ComputeSub(m.Feat, &sc.feat, g, &sc.parent, pos, false), sc)
}

// forward standardizes the feature vector f in place and runs the MLP.
func (m *Model) forward(f []float64, sc *scorer) float64 {
	m.Std.Transform(f)
	return m.Net.ForwardScratch(f, &sc.fwd)
}

// isMaximalClique reports whether q (assumed to be a clique of g) has no
// common neighbor, i.e. cannot be extended to a larger clique.
func isMaximalClique(g *graph.Graph, q []int) bool {
	if len(q) == 0 {
		return false
	}
	// Intersect neighborhoods starting from the lowest-degree member.
	best := q[0]
	for _, u := range q[1:] {
		if g.Degree(u) < g.Degree(best) {
			best = u
		}
	}
	inQ := make(map[int]bool, len(q))
	for _, u := range q {
		inQ[u] = true
	}
	found := false
	g.NeighborWeights(best, func(v, _ int) {
		if found || inQ[v] {
			return
		}
		for _, u := range q {
			if u != best && !g.HasEdge(u, v) {
				return
			}
		}
		found = true
	})
	return !found
}

// Intner is the minimal randomness source PermSampler consumes; both
// *rand.Rand and the search engine's sampleRNG satisfy it.
type Intner interface {
	Intn(n int) int
}

// PermSampler draws sorted random k-subsets of a slice while reusing one
// permutation buffer between draws. The buffer replays exactly the Intn
// draw sequence of rand.Perm — including the throwaway Intn(1) of its
// first iteration — so seeded outputs are bit-for-bit identical to an
// rng.Perm-based sampler over the same Intn stream, just without the
// per-call permutation allocation. Shared by the MARIOH search and the
// SHyRe baselines; not safe for concurrent use. The zero value is ready
// to use.
type PermSampler struct {
	perm []int
}

// Sample returns a sorted random k-subset of q.
func (ps *PermSampler) Sample(q []int, k int, rng Intner) []int {
	out := make([]int, k)
	for i, j := range ps.SamplePositions(len(q), k, rng) {
		out[i] = q[j]
	}
	sort.Ints(out)
	return out
}

// SamplePositions returns a random k-subset of the positions [0, n) in
// ascending order, consuming rng exactly as Sample does on an n-element
// slice; for a sorted q, Sample's subset is q at these positions. The
// slice is owned by the sampler and valid until its next draw.
func (ps *PermSampler) SamplePositions(n, k int, rng Intner) []int {
	if cap(ps.perm) < n {
		ps.perm = make([]int, n)
	}
	p := ps.perm[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	pos := p[:k]
	slices.Sort(pos)
	return pos
}
