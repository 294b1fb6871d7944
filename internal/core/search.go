package core

import (
	"context"
	"fmt"
	"math"
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
	// enumerate-and-score loop and every 256 cliques a worker scores inside
	// a seed, before each component's search, every 1,024 cliques of
	// Phase 1's walk, between the phases, and before each Phase 2 parent
	// is scored; cancellation makes the search return early with whatever
	// it has accepted so far (nothing, if it strikes before the phases
	// begin).
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
	// enumerate-and-score loop, the per-component search, and Phase 2's
	// scoring when the round searches one component); ≤ 0 = GOMAXPROCS,
	// 1 = serial. Output bytes are identical at every setting.
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
// above θ, and accepts them the same way; a sub-clique with a pair Phase
// 1 consumed could never be accepted, and is not scored. Components never
// share edges, so this per-component order produces exactly the same
// acceptances as any interleaving — which is what makes the round equal
// to the union of the same round run on each component (or piece)
// separately.
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
	accepted := searchComponents(g, m, opts, rec, keys, groups, acceptedBy, rs, workers)
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
// round on up to workers workers, each with its scorer from rs. A round
// that searches one component leaves every other worker idle, so that
// component's Phase 2 scores on up to workers scorers, one per clique at
// most. Safe because components never
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
func searchComponents(g *graph.Graph, m *Model, opts SearchOptions, rec *hypergraph.Hypergraph, keys []int, groups map[int][]scoredClique, acceptedBy map[int]int, rs *roundScratch, workers int) int {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// share is the scorers one component's search runs on. Phase 2's
	// workers claim its parents, which are some of its cliques, so the
	// scorers stay bounded by the input whatever Parallelism asks for.
	share := 1
	if len(keys) == 1 {
		share = min(workers, len(groups[keys[0]]))
	}
	scs := rs.workers(max(min(workers, len(keys)), share))
	results := make([][][]int, len(keys))
	processed := make([]bool, len(keys))
	Fanout{Workers: workers}.Run(ctx, len(keys), func(w, i int) {
		results[i] = searchComponent(g, m, opts, keys[i], groups[keys[i]], scs[w:w+share])
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
// fan-out above exact. scs[0] is the calling worker's scratch, and the
// rest are the idle workers' that Phase 2 may score on.
func searchComponent(g *graph.Graph, m *Model, opts SearchOptions, compKey int, cliques []scoredClique, scs []*scorer) [][]int {
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
		if g.IsClique(c.nodes) {
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
	subs, ok := exploreParents(ctx, g, m, rest[:nNeg], opts.Theta, rng, scs, nil)
	if !ok {
		return accepted
	}
	sortByScoreDesc(subs)
	for _, c := range subs {
		if g.IsClique(c.nodes) {
			accepted = append(accepted, c.nodes)
			consumeClique(g, c.nodes)
		}
	}
	return accepted
}

// exploreParents is Phase 2's scoring step for one component, run by the
// worker that searches it, on scs[0]. It draws, scores and keeps the
// parents' sub-cliques in blocks of parents (subDraws.explore), and
// returns subs with the live draws (see subDraws.score) scoring above
// theta appended in draw order, parent by parent and k ascending. A
// block's draws score on scs[0] alone or, once they number fanoutAt, on
// every scorer of scs. eu-dense's rounds of thousands of draws fan out; a
// serve-mixed miss draws at most 32 and stays on the calling goroutine.
//
// When m's featurizer reads pair statistics, scs[0]'s pair table is built
// over the parents' nodes first, and every scorer reads it, read-only,
// until exploreParents returns. That is exact because Phase 1 is over and
// Phase 2 scores all of a component's draws before it consumes an edge:
// pairs Phase 1 consumed are non-edges of the table's graph, which it
// reads through the per-pair merges. ctx is polled before each parent is
// scored; ok is false after cancellation, and subs must be dropped.
func exploreParents(ctx context.Context, g *graph.Graph, m *Model, parents []scoredClique, theta float64, rng *sampleRNG, scs []*scorer, subs []scoredClique) (_ []scoredClique, ok bool) {
	sc := scs[0]
	var t *graph.PairTable
	if features.UsesPairTable(m.Feat) {
		n := 0
		for _, c := range parents {
			n += len(c.nodes)
		}
		sc.cover = sized(sc.cover, n)
		for _, c := range parents {
			sc.cover = append(sc.cover, c.nodes...)
		}
		t = sc.feat.Table()
		t.Build(g, sc.cover)
		sc.feat.UseTable(t)
		defer sc.feat.UseTable(nil)
	}
	return sc.draws.explore(ctx, g, m, parents, theta, rng, scs, t, subs)
}

// drawBlock is how many draws Phase 2 holds at once: a block of parents
// ends at the first parent that brings its draws to drawBlock. It is four
// fan-out points, so each block of a big component still fans out, and
// the buffer stays a few thousand draws however many parents a dense
// component has.
const drawBlock = 4 * fanoutCliques

// subDraws is Phase 2's draw buffer for one block of a component's
// parents: the positions of every parent's draws, one random k-subset per
// size k ∈ [2, |q|−1], and each draw's score. The scorer of the worker
// that searches the component keeps it across blocks and rounds, so a
// warm buffer costs no allocation.
type subDraws struct {
	pos    []int      // every draw's ascending positions, parent by parent, k ascending
	spans  []drawSpan // per parent: where its positions and its draws start
	scores []float64  // per draw, in the order of pos
}

// drawSpan locates one parent's draws: its positions start at pos[pos]
// and its scores at scores[draw]; its draw of size k is its (k−2)th.
type drawSpan struct{ pos, draw int }

// explore runs Phase 2 over parents one block at a time: it draws the
// block's positions off rng on the calling goroutine, in parent order, so
// the stream is consumed exactly as a parent-by-parent walk consumes it;
// it scores the block's draws, on scs[0] alone or, once they number
// fanoutAt, on every scorer of scs, whose workers claim parents through
// Fanout and read t (nil when the featurizer reads no pair table); and it
// appends the block's draws scoring above theta to subs. A draw's score
// depends only on the graph, its parent and its positions, and lands in
// the draw's own slot; the graph does not change until every block is
// kept. So subs is the same at every worker count and block size. ctx is
// polled before each parent is scored; ok is false after cancellation.
// scs[0]'s feature, parent and sampler buffers are sized once, to the
// largest parent, so a cold scorer does not grow them parent by parent.
func (d *subDraws) explore(ctx context.Context, g *graph.Graph, m *Model, parents []scoredClique, theta float64, rng *sampleRNG, scs []*scorer, t *graph.PairTable, subs []scoredClique) (_ []scoredClique, ok bool) {
	most := 0
	for _, c := range parents {
		most = max(most, len(c.nodes))
	}
	sc := scs[0]
	sc.feat.Grow(most)
	sc.parent.Grow(most)
	sc.perm.perm = sized(sc.perm.perm, most)
	for len(parents) > 0 {
		n, draws := d.draw(parents, rng, &sc.perm, drawBlock)
		block := parents[:n]
		if draws >= fanoutAt && len(scs) > 1 {
			d.fanout(ctx, g, m, block, scs, t)
		} else {
			for i, c := range block {
				if ctx.Err() != nil {
					break
				}
				d.score(g, m, c.nodes, i, sc)
			}
		}
		if ctx.Err() != nil {
			return subs, false
		}
		subs = d.keep(block, theta, subs)
		parents = parents[n:]
	}
	return subs, true
}

// draw fills d with the positions of the draws of parents' first n
// parents off rng, in parent order and k ascending, through perm, and
// returns n and their draw count: n ends the block at the first parent
// that brings the draws to limit, or at the last parent. Each parent q
// must be sorted, so that q at sorted positions is the sorted subset
// Sample would return. It counts the block first, so each buffer grows at
// most once per block: a parent of s nodes has s−2 draws and
// s(s−1)/2 − 1 positions.
func (d *subDraws) draw(parents []scoredClique, rng *sampleRNG, perm *PermSampler, limit int) (n, draws int) {
	npos := 0
	for n < len(parents) && draws < limit {
		s := len(parents[n].nodes)
		if s > 2 {
			draws += s - 2
			npos += s*(s-1)/2 - 1
		}
		n++
	}
	d.pos = sized(d.pos, npos)
	d.spans = sized(d.spans, n)
	d.scores = sized(d.scores, draws)[:draws]
	draws = 0
	for _, c := range parents[:n] {
		q := c.nodes
		d.spans = append(d.spans, drawSpan{pos: len(d.pos), draw: draws})
		for k := 2; k <= len(q)-1; k++ {
			d.pos = append(d.pos, perm.SamplePositions(len(q), k, rng)...)
			draws++
		}
	}
	return n, draws
}

// sized returns s emptied, with capacity for n, allocating once when it
// has less. It copies nothing, as its callers overwrite what they sized;
// slices.Grow would copy the old contents, and under the race detector
// its append of a make takes two allocations.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// score scores the draws of parent i, q, as non-maximal on sc, and marks
// each dead draw — one with a pair that is no edge of g — with a NaN
// score instead, without featurizing it. Phase 1 is over, and Phase 2
// only removes edges and consumes nothing it rejects, so a dead draw
// would fail IsClique whatever its score; NaN is above no θ, so
// keep drops it, and (score, nodes) being a strict total order, dropping
// it moves no other acceptance. q's pairs are read once
// (features.LiveSub), off sc's attached table or, for a featurizer that
// reads no pairs, off g's weights, and every live draw's features are
// read off that copy (features.ComputeSub).
func (d *subDraws) score(g *graph.Graph, m *Model, q []int, i int, sc *scorer) {
	sc.parent.Reset(q)
	sp := d.spans[i]
	for k := 2; k <= len(q)-1; k++ {
		pos := d.pos[sp.pos : sp.pos+k]
		if features.LiveSub(m.Feat, &sc.feat, g, &sc.parent, pos) {
			d.scores[sp.draw] = m.scoreSub(g, pos, sc)
		} else {
			d.scores[sp.draw] = math.NaN()
		}
		sp.pos += k
		sp.draw++
	}
}

// fanout scores every parent's draws on the scorers of scs, one worker
// each, which claim parents in ascending order through Fanout. The
// helpers read t, scs[0]'s pair table (nil when the featurizer reads
// none), until fanout returns. It is a function of its own so that its
// closure, which goes to the heap, is built only when a block fans out:
// the one-worker path allocates nothing.
func (d *subDraws) fanout(ctx context.Context, g *graph.Graph, m *Model, parents []scoredClique, scs []*scorer, t *graph.PairTable) {
	for _, sc := range scs[1:] {
		sc.feat.UseTable(t)
	}
	Fanout{Workers: len(scs)}.Run(ctx, len(parents), func(w, i int) {
		d.score(g, m, parents[i].nodes, i, scs[w])
	})
	for _, sc := range scs[1:] {
		sc.feat.UseTable(nil)
	}
}

// keep appends the draws scoring above theta to subs, parent by parent
// and k ascending, each with a node slice of its own; the draws below it,
// and the dead draws that score marked NaN, cost nothing.
func (d *subDraws) keep(parents []scoredClique, theta float64, subs []scoredClique) []scoredClique {
	for i, c := range parents {
		sp := d.spans[i]
		for k := 2; k <= len(c.nodes)-1; k++ {
			if s := d.scores[sp.draw]; s > theta {
				nodes := make([]int, k)
				for a, j := range d.pos[sp.pos : sp.pos+k] {
					nodes[a] = c.nodes[j]
				}
				subs = append(subs, scoredClique{nodes: nodes, score: s})
			}
			sp.pos += k
			sp.draw++
		}
	}
	return subs
}

// ScoreSubcliques is the exported form of Phase 2's scoring step, used by
// benchmarks: it explores every parent (a sorted clique of g) as a round's
// Phase 2 does for one component, pair table included, drawing from one
// stream seeded by seed, and returns how many live draws (those whose
// pairs are all edges of g; the others are not scored) score above
// theta. It scores at the default parallelism (GOMAXPROCS), past the
// same fan-out point as a round. g is not modified.
func ScoreSubcliques(g *graph.Graph, m *Model, parents [][]int, theta float64, seed int64) int {
	ps := make([]scoredClique, len(parents))
	for i, q := range parents {
		ps[i].nodes = q
	}
	scs := new(roundScratch).workers(resolveWorkers(0))
	subs, _ := exploreParents(context.Background(), g, m, ps, theta, newSampleRNG(seed), scs, nil)
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
		return slices.Compare(a.nodes, b.nodes)
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
		return slices.Compare(a.nodes, b.nodes)
	})
}
