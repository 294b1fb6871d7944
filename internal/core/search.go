package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// scoredClique pairs a clique with its classifier score.
type scoredClique struct {
	nodes []int
	score float64
}

// roundCache carries per-component clique enumeration and scoring results
// across the search rounds of one reconstruction run; every production
// entry point runs with one. A component that accepts nothing in a round
// is unchanged, so its maximal cliques and scores next round are
// bit-for-bit identical: a round reuses them and re-enumerates, in place
// on the residual graph, only the components that changed. The reuse is
// exact because every feature is component-local and a seed's
// Bron–Kerbosch subtree stays inside its component. (Phase 1 and Phase 2
// still run every round for every live component; only enumeration and
// maximal-clique scoring are skipped.) BidirectionalSearch without a
// cache is the cache-free round, kept as the tests' oracle.
type roundCache struct {
	comps map[int][]scoredClique // component key → its scored cliques
}

// SearchOptions configure one round of BidirectionalSearch.
type SearchOptions struct {
	// Ctx, when non-nil, is polled before each seed claim of the
	// enumerate-and-score loop, between the phases of the round and while
	// walking accepted cliques; cancellation makes the search return early
	// with whatever it has accepted so far (nothing, if it strikes before
	// the phases begin).
	Ctx context.Context
	// Theta is the current acceptance threshold θ.
	Theta float64
	// R is the negative prediction processing ratio r (%): the share of
	// below-threshold maximal cliques, per connected component, whose
	// sub-cliques are explored.
	R float64
	// DisableSubcliques skips Phase 2 entirely (the MARIOH-B ablation).
	DisableSubcliques bool
	// Round is the 0-based global round index. Together with Seed it keys
	// the per-component sub-clique sampling streams, which is what makes a
	// round decompose exactly over connected components: the samples drawn
	// for one component never depend on what other components — possibly
	// cached, or outside a session's dirty piece — are doing.
	Round int
	// Seed is the run seed (Options.Seed).
	Seed int64
	// OrigID maps node ids of g to the ids of the original graph when g
	// is a piece of it; nil means g is the original graph. The mapping
	// must be order-preserving. Component sampling streams are keyed by
	// original ids, so a piece draws exactly the samples the serial run
	// draws for the same component.
	OrigID []int
	// Parallelism bounds the worker fan-out of the round (the
	// enumerate-and-score loop and the per-component search); ≤ 0 =
	// GOMAXPROCS, 1 = serial. Output bytes are identical at every setting.
	Parallelism int
	// StallDump, when true, dumps the remaining edges of every component
	// that accepted nothing this round as size-2 hyperedges — the
	// termination guarantee for bottomed-out (or α-frozen) thresholds,
	// applied per component so it decomposes over components. Dumped
	// occurrences count as accepted.
	StallDump bool
	// budget, when positive, bounds the maximal cliques of each component
	// the round enumerates (Options.MaxCliqueLimit); see search.
	budget int
	// cache, when non-nil, supplies the cliques and scores of the
	// components that accepted nothing since their last enumeration, and
	// records this round's for the next.
	cache *roundCache
	// scratch, when non-nil, is the reconstruction's worker state, kept
	// across its rounds; nil gives the round a fresh one.
	scratch *roundScratch
}

// BidirectionalSearch performs one round of MARIOH's Algorithm 3 on the
// residual graph g, appending accepted hyperedges to rec and subtracting
// their constituent edges from g. It returns the number of hyperedge
// occurrences accepted this round.
//
// The round is processed per connected component of g, in ascending order
// of component key (the smallest original node id in the component).
// Within a component, Phase 1 walks the above-threshold maximal cliques in
// descending score order, re-checking before each acceptance that all
// clique edges still exist. Phase 2 samples, for every clique among the
// component's lowest-r% below-threshold ones, one random k-sub-clique per
// size k ∈ [2, |Q|−1] from a component-keyed stream, keeps those scoring
// above θ, and accepts them the same way. Components never share edges, so
// this per-component order produces exactly the same acceptances as any
// interleaving — which is what makes the round equal to the union of the
// same round run on each component (or piece) separately.
//
// With a cache, the components it holds keep their cliques and the round
// runs the seeds of the others' live nodes only. BidirectionalSearch
// ranks g's nodes itself; a reconstruction run ranks once, at its first
// round, and reuses the ranks in every later one.
func BidirectionalSearch(g *graph.Graph, m *Model, opts SearchOptions, rec *hypergraph.Hypergraph) int {
	accepted, _ := search(g, m, opts, rec)
	return accepted
}

// search is BidirectionalSearch under the clique budget: when a component
// it enumerates has more than opts.budget maximal cliques, it fails with
// ErrCliqueBudget before the phases begin, leaving g and rec untouched. A
// cached component was within the budget when it was enumerated, and its
// cliques have not changed since. A component's cliques reach the phases
// as a set: both sort them by (score, nodes), a strict total order, so
// the order the loop emits them in cannot move an acceptance.
func search(g *graph.Graph, m *Model, opts SearchOptions, rec *hypergraph.Hypergraph) (int, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	workers := resolveWorkers(opts.Parallelism)
	key := componentKeys(g, opts.OrigID)
	rs := opts.scratch
	if rs == nil {
		rs = new(roundScratch)
	}
	cache := opts.cache
	if cache == nil {
		cache = new(roundCache)
	}

	// Group this round's cliques by the component they live in, starting
	// with the live components the cache holds; nodes collects the live
	// nodes of the others, whose seeds the round runs. Cliques never span
	// components, so the first node's key labels a clique.
	groups := map[int][]scoredClique{}
	var nodes []int
	for v, k := range key {
		if k < 0 {
			continue
		}
		if sc, ok := cache.comps[k]; ok {
			groups[k] = sc
		} else {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) > 0 {
		scored, over := enumerateScored(ctx, g, m, nodes, key, opts.budget, workers, rs)
		if over {
			return 0, fmt.Errorf("%w: a component has more than %d maximal cliques in round %d",
				ErrCliqueBudget, opts.budget, opts.Round+1)
		}
		if ctx.Err() != nil {
			return 0, nil
		}
		for _, sc := range scored {
			k := key[sc.nodes[0]]
			groups[k] = append(groups[k], sc)
		}
	}
	if len(groups) == 0 && !opts.StallDump {
		return 0, nil
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	acceptedBy := make(map[int]int, len(groups))
	accepted := searchComponents(g, m, opts, rec, keys, groups, acceptedBy, rs.workers(min(workers, len(keys))))
	if opts.StallDump && ctx.Err() == nil {
		accepted += dumpStalledComponents(g, rec, key, acceptedBy)
	}

	if cache.comps == nil {
		cache.comps = map[int][]scoredClique{}
	}
	clear(cache.comps)
	for k, sc := range groups {
		// A component that accepted (or dumped) nothing is unchanged: its
		// enumeration and scores stay valid verbatim.
		if acceptedBy[k] == 0 {
			cache.comps[k] = sc
		}
	}
	return accepted, nil
}

// searchComponents runs searchComponent over the components of the
// round, fanned over one worker per scorer. Safe because components never
// share edges: each worker mutates only its component's adjacency rows
// (the graph's global edge/weight counters are atomic), and every graph
// read a component's search performs — scoring features, its pair
// table's build, edge-presence checks — is local to that component, so it
// observes exactly the state a serial walk would. Acceptances land in
// index-addressed per-component buffers, never in shared state, and are
// merged into rec in ascending key order after the join, so rec's
// in-memory insertion order, the acceptance counts, and the cache
// bookkeeping match the serial walk exactly. A component skipped by
// cancellation stays out of acceptedBy.
func searchComponents(g *graph.Graph, m *Model, opts SearchOptions, rec *hypergraph.Hypergraph, keys []int, groups map[int][]scoredClique, acceptedBy map[int]int, scs []*scorer) int {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([][][]int, len(keys))
	processed := make([]bool, len(keys))
	Fanout{Workers: len(scs)}.Run(ctx, len(keys), func(w, i int) {
		results[i] = searchComponent(g, m, opts, keys[i], groups[keys[i]], scs[w])
		processed[i] = true
	})
	accepted := 0
	for i, k := range keys {
		if !processed[i] {
			continue
		}
		for _, e := range results[i] {
			rec.Add(e)
		}
		acceptedBy[k] = len(results[i])
		accepted += len(results[i])
	}
	return accepted
}

// searchComponent runs both phases of a round on one component's cliques,
// consuming accepted cliques from g and returning them in acceptance
// order; the caller records them into the reconstruction. Mutations and
// reads stay inside the component, which is what makes the parallel
// fan-out above exact. sc is the calling worker's scratch.
func searchComponent(g *graph.Graph, m *Model, opts SearchOptions, compKey int, cliques []scoredClique, sc *scorer) [][]int {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var pos, rest []scoredClique
	for _, c := range cliques {
		if c.score > opts.Theta {
			pos = append(pos, c)
		} else {
			rest = append(rest, c)
		}
	}

	var accepted [][]int
	// Phase 1: most promising cliques, highest score first.
	sortByScoreDesc(pos)
	for i, c := range pos {
		if i&0x3ff == 0 && ctx.Err() != nil {
			return accepted
		}
		if allEdgesPresent(g, c.nodes) {
			accepted = append(accepted, c.nodes)
			consumeClique(g, c.nodes)
		}
	}

	if opts.DisableSubcliques || ctx.Err() != nil {
		return accepted
	}

	// Phase 2: least promising cliques — the component's lowest r% by
	// score — with a sampling stream owned by (seed, round, component).
	sortByScoreAsc(rest)
	nNeg := int(float64(len(rest)) * opts.R / 100)
	if nNeg > len(rest) {
		nNeg = len(rest)
	}
	if nNeg == 0 {
		return accepted
	}
	rng := newSampleRNG(sampleSeed(opts.Seed, opts.Round, compKey))
	subs, ok := exploreParents(ctx, g, m, rest[:nNeg], opts.Theta, rng, sc, nil)
	if !ok {
		return accepted
	}
	sortByScoreDesc(subs)
	for _, c := range subs {
		if allEdgesPresent(g, c.nodes) {
			accepted = append(accepted, c.nodes)
			consumeClique(g, c.nodes)
		}
	}
	return accepted
}

// exploreParents is Phase 2's scoring step for one component: it explores
// the parents in order on one stream and appends the draws scoring above
// theta to subs. When m's featurizer reads pair statistics, it first
// builds sc's pair table over the parents' nodes and attaches it for the
// draws, detaching it before it returns. That is exact because Phase 1
// is over and Phase 2 scores all of a component's draws before it
// consumes an edge: pairs Phase 1 consumed are non-edges of the table's
// graph, which it reads through the per-pair merges. ctx is polled every
// 1024 parents; ok is false after cancellation, and subs must be dropped.
func exploreParents(ctx context.Context, g *graph.Graph, m *Model, parents []scoredClique, theta float64, rng *sampleRNG, sc *scorer, subs []scoredClique) (_ []scoredClique, ok bool) {
	if features.UsesPairTable(m.Feat) {
		sc.cover = sc.cover[:0]
		for _, c := range parents {
			sc.cover = append(sc.cover, c.nodes...)
		}
		t := sc.feat.Table()
		t.Build(g, sc.cover)
		sc.feat.UseTable(t)
		defer sc.feat.UseTable(nil)
	}
	for i, c := range parents {
		if i&0x3ff == 0 && ctx.Err() != nil {
			return subs, false
		}
		subs = exploreSubcliques(g, m, c.nodes, theta, rng, sc, subs)
	}
	return subs, true
}

// exploreSubcliques is Phase 2's draw for one parent clique q: one random
// k-subset per size k ∈ [2, |q|−1] from rng, each scored as non-maximal;
// those scoring above theta are appended to subs. Every draw's features
// are read off q's pairs, read once (features.ComputeSub) off sc's
// attached table or off one built over q, and a draw gets its own node
// slice only when it scores above theta. q must be sorted — enumeration
// emits sorted cliques and the subgraph remap preserves order — so that
// q at sorted positions is the sorted subset Sample would return.
func exploreSubcliques(g *graph.Graph, m *Model, q []int, theta float64, rng *sampleRNG, sc *scorer, subs []scoredClique) []scoredClique {
	sc.parent.Reset(q)
	for k := 2; k <= len(q)-1; k++ {
		pos := sc.perm.SamplePositions(len(q), k, rng)
		if s := m.scoreSub(g, pos, sc); s > theta {
			nodes := make([]int, k)
			for i, j := range pos {
				nodes[i] = q[j]
			}
			subs = append(subs, scoredClique{nodes: nodes, score: s})
		}
	}
	return subs
}

// ScoreSubcliques is the exported form of Phase 2's scoring step, used by
// benchmarks: it explores every parent (a sorted clique of g) as a round's
// Phase 2 does for one component, pair table included, drawing from one
// stream seeded by seed, and returns how many draws score above theta.
// g is not modified.
func ScoreSubcliques(g *graph.Graph, m *Model, parents [][]int, theta float64, seed int64) int {
	ps := make([]scoredClique, len(parents))
	for i, q := range parents {
		ps[i].nodes = q
	}
	subs, _ := exploreParents(context.Background(), g, m, ps, theta, newSampleRNG(seed), new(scorer), nil)
	return len(subs)
}

// dumpStalledComponents consumes the remaining edges of every component
// that was processed this round yet accepted nothing, emitting them as
// size-2 hyperedges so the outer loop always terminates once θ has
// bottomed out (or is frozen by α = 0) even when the classifier never
// scores a clique above the threshold. The rule is evaluated per
// component — never globally — so a stalled component is dumped at the
// same round whether it is reconstructed in the full graph, from the
// round cache or inside a session's piece.
func dumpStalledComponents(g *graph.Graph, rec *hypergraph.Hypergraph, key []int, acceptedBy map[int]int) int {
	var doomed []graph.Edge
	for _, e := range g.Edges() {
		if acceptedBy[key[e.U]] == 0 {
			doomed = append(doomed, e)
		}
	}
	dumped := 0
	for _, e := range doomed {
		rec.AddMult([]int{e.U, e.V}, e.W)
		g.RemoveEdge(e.U, e.V)
		// Count the dump as that component's acceptances so the caller
		// both reports it and invalidates the component's cache entry.
		acceptedBy[key[e.U]] += e.W
		dumped += e.W
	}
	return dumped
}

// componentKeys labels every node of g with its component key — the
// smallest original node id in its connected component — or -1 for
// isolated nodes. Nodes are visited in ascending local id and origID is
// order-preserving, so the first node seen of each component carries its
// key.
func componentKeys(g *graph.Graph, origID []int) []int {
	n := g.NumNodes()
	key := make([]int, n)
	for i := range key {
		key[i] = -1
	}
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if key[s] >= 0 || g.Degree(s) == 0 {
			continue
		}
		k := s
		if origID != nil {
			k = origID[s]
		}
		key[s] = k
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.NeighborWeights(u, func(v, _ int) {
				if key[v] < 0 {
					key[v] = k
					stack = append(stack, v)
				}
			})
		}
	}
	return key
}

// sampleSeed derives the Phase-2 sampling stream of one component in one
// round. Keying by (run seed, round, component) — instead of consuming one
// global stream in clique order — makes sub-clique sampling independent of
// how components are interleaved, cached or cut into pieces.
func sampleSeed(seed int64, round, compKey int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ uint64(round))
	h = splitmix64(h ^ uint64(compKey))
	return int64(h)
}

// splitmix64 is the SplitMix64 finalizer, a cheap high-quality mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sampleRNG is the SplitMix64 generator behind Phase-2 sampling. One
// component consumes one stream per round, so seeding must be cheap: this
// is a single word write, where math/rand's lagged-Fibonacci source warms
// up 607 words per seed — which dominated round costs on graphs with many
// small components.
type sampleRNG struct{ s uint64 }

func newSampleRNG(seed int64) *sampleRNG { return &sampleRNG{s: uint64(seed)} }

// Intn returns a uniform int in [0, n), rejection-sampled for exact
// uniformity. It panics if n is not positive, matching math/rand.
func (r *sampleRNG) Intn(n int) int {
	if n <= 0 {
		panic("sampleRNG: Intn with non-positive n")
	}
	un := uint64(n)
	// Values ≥ limit would bias the modulus; redraw on them. For the
	// small n used here (clique sizes) the loop essentially never spins.
	limit := ^uint64(0) - ^uint64(0)%un
	for {
		r.s += 0x9e3779b97f4a7c15
		v := r.s
		v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
		v = (v ^ (v >> 27)) * 0x94d049bb133111eb
		v ^= v >> 31
		if v < limit {
			return int(v % un)
		}
	}
}

// allEdgesPresent reports whether every pair of nodes in q is still an edge
// of g (the E_Q ⊆ E_G' check of Algorithm 3).
func allEdgesPresent(g *graph.Graph, q []int) bool {
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			if !g.HasEdge(q[i], q[j]) {
				return false
			}
		}
	}
	return true
}

// consumeClique decrements ω by one on every edge of the clique, deleting
// edges whose multiplicity reaches zero.
func consumeClique(g *graph.Graph, q []int) {
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			g.AddWeight(q[i], q[j], -1)
		}
	}
}

// sortByScoreDesc orders by descending score, breaking ties by clique
// lexicographic order for determinism.
// The score sorts use concrete slices.SortFunc rather than the reflective
// sort.SliceStable: (score, nodes) is a strict total order over the distinct
// cliques of a round, so every correct sort — stable or not — produces the
// same permutation, and the reflection-free swap is measurably cheaper on
// large rounds.
func sortByScoreDesc(s []scoredClique) {
	slices.SortFunc(s, func(a, b scoredClique) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return cmpNodes(a.nodes, b.nodes)
	})
}

func sortByScoreAsc(s []scoredClique) {
	slices.SortFunc(s, func(a, b scoredClique) int {
		if a.score != b.score {
			if a.score < b.score {
				return -1
			}
			return 1
		}
		return cmpNodes(a.nodes, b.nodes)
	})
}

func cmpNodes(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
