// The round's enumerate-and-score step: one Fanout over the live nodes of
// the components the round cache does not hold, each the seed of an
// independent Bron–Kerbosch subtree (graph.CliqueSeeder). A run ranks its
// graph's nodes once, at its first enumeration; the ranks stay valid
// because rounds only remove edges. Each worker claims the next node,
// enumerates that seed's maximal cliques, scores each one in place with
// its own scorer, and files the scored cliques in the seed's bucket.
// ScoreCliques runs through the same loop over a given list, one clique
// per seed.
//
// Before the first claim the loop builds one graph.PairTable over the
// enumerated nodes, which every worker reads ω and MHH off: the graph
// does not change while the loop runs, and the maximal cliques of a dense
// round share their pairs many times over, so each edge's MHH is computed
// once instead of once per clique that holds it.
//
// Determinism: a clique's score depends only on the graph and the clique
// (a scorer is pure scratch, and every table yields the same integers),
// and a seed's sub-stream is the same whoever enumerates it, so joining
// the buckets in claim order yields the same scored stream at every
// worker count. The round consumes each component's clique set, never
// this order (see search). Under a clique budget the loop counts each
// component's cliques as their buckets finish and fails the round once a
// count passes it; a round that passes returns the whole stream.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"marioh/internal/features"
	"marioh/internal/graph"
)

// fanoutCliques is the number of known cliques at which the loop starts
// its helper workers. Below it, the hand-off costs more than it saves: an
// always-fan-out variant won eu-dense's big rounds but lost serve-mixed,
// whose misses score at most 56 cliques a round.
const fanoutCliques = 256

// cancelPollCliques is how many cliques a worker scores between its
// polls of ctx inside a seed, which bounds the cliques it scores after a
// cancel.
const cancelPollCliques = 256

// fanoutAt is the fan-out point the loop uses: fanoutCliques, except in
// tests that lower it to force the fan-out on tiny rounds.
var fanoutAt = fanoutCliques

// arenaBlockInts sizes the blocks nodeArena carves clique node slices
// from. One block serves a few hundred small cliques, replacing per-clique
// allocations — the dominant share of the old per-round alloc count — while
// keeping the waste of a round's half-filled final block small.
const arenaBlockInts = 1024

// nodeArena hands out int slices carved from large shared blocks. Slices
// remain valid when the arena moves on to a new block (the old block stays
// referenced by the slices cut from it); a block is freed when every
// clique cut from it is dropped. Rounds drop their cliques together, so
// blocks die with the round — except entries kept by the round cache,
// which can pin the blocks their component's cliques share with others;
// that retention is bounded by one round's clique volume.
type nodeArena struct {
	buf []int
}

// alloc returns a zeroed slice of n ints with full-slice-expression
// capacity, so appends by the caller can never bleed into a neighbor.
func (a *nodeArena) alloc(n int) []int {
	if len(a.buf)+n > cap(a.buf) {
		size := arenaBlockInts
		if n > size {
			size = n
		}
		a.buf = make([]int, 0, size)
	}
	lo := len(a.buf)
	a.buf = a.buf[: lo+n : cap(a.buf)]
	return a.buf[lo : lo+n : lo+n]
}

// roundScratch is the worker state of one reconstruction's rounds: one
// scorer per worker index, and the run's clique seeder. It lives for the
// whole reconstruction, so the node-indexed arrays of the scorers' pair
// tables, the seeder's ranks and Phase 2's draw buffers are allocated once
// per run rather than once per round. A round uses it one step at a time —
// the filter, the loop's workers, then the component search's — never
// from two steps at once, so the table the filter and the loop's workers
// read can be the first worker's, which that worker rebuilds for Phase 2.
// In a round that searches one component, every worker scores that
// component's Phase 2 draws off that rebuilt table.
type roundScratch struct {
	scorers []*scorer
	seeds   *graph.CliqueSeeder // the run's ranks, taken at its first enumeration
}

// workers returns n scorers, one per worker index, creating missing
// ones; call it before starting the workers.
func (r *roundScratch) workers(n int) []*scorer {
	for len(r.scorers) < n {
		r.scorers = append(r.scorers, new(scorer))
	}
	return r.scorers[:n]
}

// resolveWorkers maps an Options.Parallelism value to a worker count:
// ≤ 0 means one worker per GOMAXPROCS, otherwise the value itself.
func resolveWorkers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// enumerateScored enumerates the maximal cliques (min size 2) of the
// components of g that hold nodes and scores each as maximal, using at
// most workers goroutines. nodes must be the live nodes of a union of
// whole components; seed i is nodes[i], so the cliques come in the order
// of nodes at every worker count, and the pair table covers only nodes.
// budget > 0 bounds each component's cliques, with key labelling the
// components (see componentKeys): the bool reports that one has more, and
// the cliques are then dropped. ctx is polled before each seed claim and
// every cancelPollCliques cliques a worker scores; after cancellation the
// result is partial and must be dropped. rs supplies the workers' scratch
// and the run's seeder; nil uses a fresh one.
func enumerateScored(ctx context.Context, g *graph.Graph, m *Model, nodes, key []int, budget, workers int, rs *roundScratch) ([]scoredClique, bool) {
	if rs == nil {
		rs = new(roundScratch)
	}
	if rs.seeds == nil {
		rs.seeds = g.CliqueSeeds(2)
	}
	s := rs.seeds
	l := &seedLoop{ctx: ctx, g: g, m: m, cover: nodes, budget: budget, key: key, rs: rs,
		seed: func(w *seedWorker, i int) { s.EnumSeed(nodes[i], &w.enum, w.emit) }}
	return l.run(len(nodes), workers, 0)
}

// ScoreCliques evaluates the classifier on each clique (treated as
// maximal) and returns the scores in input order. It is the exported form
// of the per-round scoring pass, used by benchmarks and analyses; it runs
// the round's loop, one clique per seed, at the default parallelism
// (GOMAXPROCS).
func ScoreCliques(g *graph.Graph, m *Model, cliques [][]int) []float64 {
	l := &seedLoop{ctx: context.Background(), g: g, m: m, rs: new(roundScratch),
		seed: func(w *seedWorker, i int) { w.score(cliques[i]) }}
	scored, _ := l.run(len(cliques), resolveWorkers(0), len(cliques))
	out := make([]float64, len(scored))
	for i, s := range scored {
		out[i] = s.score
	}
	return out
}

// seedLoop is one run of the enumerate-and-score loop.
type seedLoop struct {
	ctx   context.Context
	g     *graph.Graph
	m     *Model
	cover []int // the pair table's nodes; nil = all of g
	rs    *roundScratch
	// budget > 0 bounds each component's cliques; key labels each node's
	// component.
	budget int
	key    []int
	// seed scores seed i's cliques through w.score (or w.emit, which
	// copies a reused enumeration buffer first).
	seed func(w *seedWorker, i int)

	done    atomic.Int64     // cliques in finished buckets
	buckets [][]scoredClique // per seed, in seed order

	mu     sync.Mutex
	counts map[int]int // component key → cliques in its finished buckets; guarded by mu
	over   atomic.Bool // some component is past the budget
}

// run scores n seeds on up to workers goroutines and joins the buckets.
// The calling goroutine works alone until known plus the finished
// buckets' cliques reach fanoutAt; only then does it start the helpers.
// known is the clique count the caller knows up front (a round learns its
// count while it enumerates). The bool reports that a component passed
// the budget, in which case no cliques are returned.
//
// A seed's cliques all lie in its component, so a finished bucket adds to
// one component's count. Claiming stops once a count passes the budget,
// and a seed stops once its bucket holds budget+1 cliques, which alone
// prove its component past it. On a graph of one component past the
// budget, at most (workers+1)·(budget+1) cliques are ever scored: at most
// budget finish before the stop, the bucket that crosses it holds at most
// budget+1, and every other worker runs at most one more bucket of at
// most budget+1.
//
// The pair table is built on the calling goroutine before the first
// claim and only read after it; the helpers start after the build. It is
// skipped when ctx is already cancelled or the featurizer reads no pair
// statistics.
func (l *seedLoop) run(n, workers, known int) ([]scoredClique, bool) {
	l.buckets = make([][]scoredClique, n)
	scs := l.rs.workers(max(min(workers, n), 1))
	var table *graph.PairTable
	if n > 0 && l.ctx.Err() == nil && features.UsesPairTable(l.m.Feat) {
		table = scs[0].feat.Table()
		table.Build(l.g, l.cover)
	}
	for _, sc := range scs {
		sc.feat.UseTable(table)
	}
	ws := make([]*seedWorker, len(scs))
	Fanout{
		Workers: workers,
		Ready:   func() bool { return known+int(l.done.Load()) >= fanoutAt },
		Stop:    l.over.Load,
	}.Run(l.ctx, n, func(wi, i int) {
		w := ws[wi]
		if w == nil {
			w = l.newWorker(scs[wi])
			ws[wi] = w
		}
		w.lo = len(w.out)
		l.seed(w, i)
		b := w.out[w.lo:len(w.out):len(w.out)]
		l.buckets[i] = b
		l.done.Add(int64(len(b)))
		if l.budget > 0 && len(b) > 0 {
			l.tally(l.key[b[0].nodes[0]], len(b))
		}
	})
	for _, sc := range scs {
		sc.feat.UseTable(nil)
	}
	if l.over.Load() {
		return nil, true
	}
	return l.join(), false
}

// tally adds n finished cliques to component k's count and flags the
// loop once the count passes the budget.
func (l *seedLoop) tally(k, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = map[int]int{}
	}
	l.counts[k] += n
	if l.counts[k] > l.budget {
		l.over.Store(true)
	}
}

// join concatenates the buckets in seed order.
func (l *seedLoop) join() []scoredClique {
	total := 0
	for _, b := range l.buckets {
		total += len(b)
	}
	out := make([]scoredClique, 0, total)
	for _, b := range l.buckets {
		out = append(out, b...)
	}
	return out
}

// seedWorker is one goroutine's scratch. Its buckets are sub-slices of
// out, which an append may move; a moved-from array still holds the
// buckets cut from it.
type seedWorker struct {
	l     *seedLoop
	sc    *scorer
	arena nodeArena
	enum  graph.CliqueEnum
	emit  func([]int) bool // w.keep, bound once so a seed costs no closure
	out   []scoredClique
	lo    int // start of the current seed's bucket in out
}

func (l *seedLoop) newWorker(sc *scorer) *seedWorker {
	w := &seedWorker{l: l, sc: sc}
	w.emit = w.keep
	return w
}

// keep scores an enumerated clique, whose slice the enumerator reuses, by
// copying it into the worker's arena first. Every cancelPollCliques
// cliques the worker has scored it polls ctx, and stops the seed once ctx
// is done: one seed's subtree can hold millions of cliques, and a
// cancelled round drops its cliques anyway (see search).
func (w *seedWorker) keep(c []int) bool {
	if len(w.out)%cancelPollCliques == 0 && w.l.ctx.Err() != nil {
		return false
	}
	nodes := w.arena.alloc(len(c))
	copy(nodes, c)
	return w.score(nodes)
}

// score scores nodes as a maximal clique into the current seed's bucket.
// It reports whether the seed may emit more: a bucket of budget+1
// cliques already proves its component past the budget.
func (w *seedWorker) score(nodes []int) bool {
	l := w.l
	s := l.m.scoreScratch(l.g, nodes, true, w.sc)
	w.out = append(w.out, scoredClique{nodes: nodes, score: s})
	return l.budget <= 0 || len(w.out)-w.lo <= l.budget
}
