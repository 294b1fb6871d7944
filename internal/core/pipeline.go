// The round's enumerate-and-score step: one worker loop over the seeds of
// graph.CliqueSeeder, the independent Bron–Kerbosch subtrees of the
// degeneracy ordering. Each worker claims the next seed index from an
// atomic counter, enumerates that seed's maximal cliques, scores each one
// in place with its own scorer, and files the scored cliques in the seed's
// bucket. ScoreCliques runs through the same loop over a given list, one
// clique per seed.
//
// Determinism: a clique's score depends only on the graph and the clique
// (a scorer is pure scratch), and a seed's sub-stream is the same whoever
// enumerates it, so joining the buckets in seed order yields the serial
// enumeration stream, scored, at every worker count. The MaxCliqueLimit
// cut is therefore a plain prefix of that stream.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"marioh/internal/graph"
)

// fanoutCliques is the number of known cliques at which the loop starts
// its helper workers. Below it, the hand-off costs more than it saves: an
// always-fan-out variant won eu-dense's big rounds but lost serve-mixed,
// whose misses score at most 56 cliques a round.
const fanoutCliques = 256

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

// resolveWorkers maps an Options.Parallelism value to a worker count:
// ≤ 0 means one worker per GOMAXPROCS, otherwise the value itself.
func resolveWorkers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// enumerateScored enumerates the maximal cliques of g (min size 2) and
// scores each as maximal, in the serial enumeration order, using at most
// workers goroutines. limit > 0 keeps only the stream's first limit
// cliques; the bool reports whether the stream reached limit. mapBack,
// when non-nil, relabels clique nodes from g's ids to mapBack[id] after
// scoring (the induced-subgraph dirty path); it must be ascending so
// relabeled cliques stay sorted. ctx is polled before each seed claim;
// after cancellation the result is partial and must be dropped.
func enumerateScored(ctx context.Context, g *graph.Graph, m *Model, limit, workers int, mapBack []int) ([]scoredClique, bool) {
	s := g.CliqueSeeds(2)
	l := &seedLoop{ctx: ctx, g: g, m: m, limit: limit, mapBack: mapBack,
		seed: func(w *seedWorker, i int) { s.EnumSeed(i, &w.enum, w.emit) }}
	return l.run(s.NumSeeds(), workers, 0)
}

// ScoreCliques evaluates the classifier on each clique (treated as
// maximal) and returns the scores in input order. It is the exported form
// of the per-round scoring pass, used by benchmarks and analyses; it runs
// the round's loop, one clique per seed, at the default parallelism
// (GOMAXPROCS).
func ScoreCliques(g *graph.Graph, m *Model, cliques [][]int) []float64 {
	l := &seedLoop{ctx: context.Background(), g: g, m: m,
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
	ctx     context.Context
	g       *graph.Graph
	m       *Model
	limit   int   // > 0 keeps the stream's first limit cliques
	mapBack []int // nil = identity
	// seed scores seed i's cliques through w.score (or w.emit, which
	// copies a reused enumeration buffer first).
	seed func(w *seedWorker, i int)

	next    atomic.Int64     // next unclaimed seed; claims form a prefix
	done    atomic.Int64     // cliques in finished buckets
	buckets [][]scoredClique // per seed, in seed order
}

// run scores n seeds on up to workers goroutines and joins the buckets.
// The calling goroutine works alone until known plus the finished
// buckets' cliques reach fanoutAt; only then does it start the helpers.
// known is the clique count the caller knows up front (a round learns its
// count while it enumerates).
func (l *seedLoop) run(n, workers, known int) ([]scoredClique, bool) {
	l.buckets = make([][]scoredClique, n)
	helpers := min(workers, n) - 1
	var wg sync.WaitGroup
	w := l.newWorker()
	for {
		if helpers > 0 && known+int(l.done.Load()) >= fanoutAt {
			for ; helpers > 0; helpers-- {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hw := l.newWorker()
					for l.step(hw) {
					}
				}()
			}
		}
		if !l.step(w) {
			break
		}
	}
	wg.Wait()
	return l.join()
}

// step claims the next seed and scores it on w. It reports false, claiming
// nothing, once every seed is claimed, the finished buckets hold limit
// cliques, or ctx is cancelled. Claimed seeds always run to the end, so
// they form a prefix of the stream, and a limit stop leaves that prefix
// holding at least limit cliques: the cut is exact. The done check and the
// claim are one compare-and-swap apart, with no claim between them, so at
// most (workers+1)·limit cliques are ever enumerated: fewer than limit
// finished, plus one bucket of at most limit per worker.
func (l *seedLoop) step(w *seedWorker) bool {
	var i int64
	for {
		if l.ctx.Err() != nil {
			return false
		}
		i = l.next.Load()
		if i >= int64(len(l.buckets)) || (l.limit > 0 && l.done.Load() >= int64(l.limit)) {
			return false
		}
		if l.next.CompareAndSwap(i, i+1) {
			break
		}
	}
	w.lo = len(w.out)
	l.seed(w, int(i))
	l.buckets[i] = w.out[w.lo:len(w.out):len(w.out)]
	l.done.Add(int64(len(w.out) - w.lo))
	return true
}

// join concatenates the buckets in seed order and applies the limit cut.
func (l *seedLoop) join() ([]scoredClique, bool) {
	total := 0
	for _, b := range l.buckets {
		total += len(b)
	}
	out := make([]scoredClique, 0, total)
	for _, b := range l.buckets {
		out = append(out, b...)
		if l.limit > 0 && len(out) >= l.limit {
			return out[:l.limit], true
		}
	}
	return out, false
}

// seedWorker is one goroutine's scratch. Its buckets are sub-slices of
// out, which an append may move; a moved-from array still holds the
// buckets cut from it.
type seedWorker struct {
	l     *seedLoop
	sc    scorer
	arena nodeArena
	enum  graph.CliqueEnum
	emit  func([]int) bool // w.keep, bound once so a seed costs no closure
	out   []scoredClique
	lo    int // start of the current seed's bucket in out
}

func (l *seedLoop) newWorker() *seedWorker {
	w := &seedWorker{l: l}
	w.emit = w.keep
	return w
}

// keep scores an enumerated clique, whose slice the enumerator reuses, by
// copying it into the worker's arena first.
func (w *seedWorker) keep(c []int) bool {
	nodes := w.arena.alloc(len(c))
	copy(nodes, c)
	return w.score(nodes)
}

// score scores nodes as a maximal clique into the current seed's bucket,
// then relabels them through mapBack. It reports whether the seed may
// emit more: a bucket never needs more than limit cliques.
func (w *seedWorker) score(nodes []int) bool {
	l := w.l
	s := l.m.scoreScratch(l.g, nodes, true, &w.sc)
	if l.mapBack != nil {
		for j, u := range nodes {
			nodes[j] = l.mapBack[u]
		}
	}
	w.out = append(w.out, scoredClique{nodes: nodes, score: s})
	return l.limit <= 0 || len(w.out)-w.lo < l.limit
}
