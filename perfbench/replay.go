package main

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"time"

	"marioh/internal/core"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/mlp"
	"marioh/internal/shard"
)

// The reconstruction defaults a zero-option Reconstructor resolves to
// (core.Options' documented defaults); the round replay needs them to
// follow reconstructGraph's θ schedule exactly.
const (
	thetaInit = 0.9
	rPercent  = 40.0
	alpha     = 1.0 / 20
	maxRounds = 10000
)

// forwardSink keeps the MLP forward probe's results observable.
var forwardSink float64

// replayTrain repeats core.TrainContext from outside: BuildExamples, then
// FitStandardizer and Net.Train with the options a zero-option
// Reconstructor uses. The caller checks the model against the public
// API's bytes.
func (r *runner) replayTrain(src *hypergraph.Hypergraph, g *graph.Graph, seed int64) *core.Model {
	epochs := r.sc.epochs
	if epochs <= 0 {
		epochs = 60
	}
	feat := features.Marioh{}
	root := r.tr.begin("replay.train", -1, -1)
	var X [][]float64
	var y []float64
	d := r.tr.timed("core.BuildExamples", -1, root, func() {
		X, y, _ = core.BuildExamples(g, src, core.TrainOptions{Featurizer: feat, Epochs: epochs, Seed: seed})
	})
	r.layer("core.sample_ms", ms(d))
	var m *core.Model
	d = r.tr.timed("mlp.Train", -1, root, func() {
		std := mlp.FitStandardizer(X)
		std.TransformAll(X)
		net := mlp.New(feat.Dim(), []int{32, 16}, seed+1)
		net.Train(X, y, mlp.TrainOptions{Epochs: epochs, Seed: seed + 2})
		m = &core.Model{Feat: feat, Std: std, Net: net}
	})
	r.layer("mlp.train_ms", ms(d))
	r.tr.end(root)
	return m
}

// replayRounds repeats core.ReconstructContext from outside, round by
// round: core.Filter, then one core.BidirectionalSearch per round on
// reconstructGraph's θ schedule. Before each round it probes the residual
// with the round's own building blocks — (*Graph).MaximalCliques,
// features.Compute and the MLP forward, each serial — and with two twin
// searches on clones. It returns the output and the time of the calls
// that produce it (filter plus rounds), the figure compared with an
// untraced op for the tracing overhead.
func (r *runner) replayRounds(op int, g *graph.Graph, m *core.Model, seed int64) (*hypergraph.Hypergraph, time.Duration) {
	tr := r.tr
	root := tr.begin("replay.rounds", op, -1)
	work := g.Clone()
	rec := hypergraph.New(g.NumNodes())
	var filtered int
	repro := tr.timed("core.Filter", op, root, func() { filtered = core.Filter(work, rec) })
	r.layer("core.filter_ms", ms(repro))

	var enum, feat, fwd, rounds, twin, scored time.Duration
	var cliques, roundMax, accepted, live, idle int
	var featAllocs uint64
	var fsc features.Scratch
	var msc mlp.Scratch
	var vecs []float64
	dim := m.Feat.Dim()
	theta := thetaInit
	nRounds := 0
	for round := 0; round < maxRounds && work.NumEdges() > 0; round++ {
		nRounds++
		residual := work.Clone()
		var cl [][]int
		enum += tr.timed("graph.MaximalCliques", op, root, func() { cl = residual.MaximalCliques(2) })
		cliques += len(cl)
		roundMax = max(roundMax, len(cl))

		vecs = vecs[:0]
		m0 := readMem()
		feat += tr.timed("features.Compute", op, root, func() {
			for _, q := range cl {
				vecs = append(vecs, features.Compute(m.Feat, &fsc, residual, q, true)...)
			}
		})
		featAllocs += deltaOf(m0, readMem()).mallocs
		fwd += tr.timed("mlp.Forward", op, root, func() {
			for i := 0; i+dim <= len(vecs); i += dim {
				v := m.Std.Transform(vecs[i : i+dim])
				forwardSink += m.Net.ForwardScratch(v, &msc)
			}
		})

		// Two twins on clones, at the op's parallelism: Phase 1 only, and
		// enumeration and scoring only (θ above every score accepts
		// nothing). Their difference is Phase 1's own work; the round
		// minus the first twin is Phase 2's.
		opts := core.SearchOptions{Theta: theta, R: rPercent, Round: round, Seed: seed, StallDump: theta == 0}
		phase1 := opts
		phase1.DisableSubcliques = true
		scoreOnly := phase1
		scoreOnly.Theta, scoreOnly.StallDump = 2, false
		clone := residual.Clone()
		twin += tr.timed("core.BidirectionalSearch/phase1-only", op, root, func() {
			core.BidirectionalSearch(clone, m, phase1, hypergraph.New(clone.NumNodes()))
		})
		clone = residual.Clone()
		scored += tr.timed("core.BidirectionalSearch/score-only", op, root, func() {
			core.BidirectionalSearch(clone, m, scoreOnly, hypergraph.New(clone.NumNodes()))
		})
		var acc int
		d := tr.timed("core.BidirectionalSearch", op, root, func() { acc = core.BidirectionalSearch(work, m, opts, rec) })
		rounds += d
		repro += d
		accepted += acc
		l, i := idleComponents(residual, work)
		live += l
		idle += i
		theta = max(theta-alpha*thetaInit, 0)
	}
	var buf bytes.Buffer
	d := tr.timed("hypergraph.Write", op, root, func() { _ = rec.Write(&buf) })
	tr.end(root)

	r.layer("hypergraph.write_ms", ms(d))
	r.layer("graph.enumerate_ms", ms(enum))
	r.layer("graph.cliques", float64(cliques))
	r.layer("graph.round_cliques_max", float64(roundMax))
	r.layer("features.compute_ms", ms(feat))
	r.layer("features.allocs", float64(featAllocs))
	r.layer("mlp.forward_ms", ms(fwd))
	r.layer("core.round_ms", ms(rounds))
	r.layer("core.phase1_ms", ms(twin-scored))
	r.layer("core.phase2_ms", ms(rounds-twin))
	r.layer("core.rounds", float64(nRounds))
	if total := rec.NumTotal(); total > 0 {
		r.layer("core.filter_share", float64(filtered)/float64(total))
	}
	if cliques > 0 {
		r.layer("core.accept_ratio", float64(accepted)/float64(cliques))
	}
	if live > 0 {
		r.layer("core.idle_component_share", float64(idle)/float64(live))
	}
	return rec, repro
}

// idleComponents counts the edge-bearing components of before, and those
// among them whose edges after still carries unchanged: a round only
// consumes weight, so an unchanged component is one the round left idle.
func idleComponents(before, after *graph.Graph) (live, idle int) {
	comps := before.ConnectedComponents()
	label := make([]int, before.NumNodes())
	for ci, c := range comps {
		for _, u := range c {
			label[u] = ci
		}
	}
	hasEdge := make([]bool, len(comps))
	changed := make([]bool, len(comps))
	for _, e := range before.Edges() {
		c := label[e.U]
		hasEdge[c] = true
		if after.Weight(e.U, e.V) != e.W {
			changed[c] = true
		}
	}
	for c := range comps {
		if hasEdge[c] {
			live++
			if !changed[c] {
				idle++
			}
		}
	}
	return live, idle
}

// replaySharded repeats core.ReconstructSharded from outside:
// shard.Partition, core.ReconstructPiece for every piece on a pool of
// GOMAXPROCS workers, and the AddMult merge back to original node ids. It
// returns the merged output and the replay's wall time.
func (r *runner) replaySharded(op int, g *graph.Graph, m *core.Model, seed int64) (*hypergraph.Hypergraph, time.Duration) {
	tr := r.tr
	ctx := context.Background()
	root := tr.begin("replay.sharded", op, -1)
	var plan *shard.Plan
	d := tr.timed("shard.Partition", op, root, func() {
		plan = shard.Partition(g, shard.Options{Shards: runtime.GOMAXPROCS(0)})
	})
	r.layer("shard.partition_ms", ms(d))
	r.layer("shard.pieces", float64(len(plan.Pieces)))
	largest := 0
	for _, p := range plan.Pieces {
		largest = max(largest, p.EdgeCount)
	}
	if g.NumEdges() > 0 {
		r.layer("shard.largest_piece_share", float64(largest)/float64(g.NumEdges()))
	}
	opts := core.Options{Seed: seed}

	if len(plan.Pieces) <= 1 {
		// ReconstructSharded runs an unsplittable graph as one cached piece.
		var res *core.Result
		d := tr.timed("core.ReconstructPiece", op, root, func() { res, _ = core.ReconstructPiece(ctx, g, m, opts, nil) })
		r.layer("core.piece_ms", ms(d))
		r.layer("core.piece_max_ms", ms(d))
		return res.Hypergraph, tr.end(root)
	}

	results := make([]*core.Result, len(plan.Pieces))
	durs := make([]time.Duration, len(plan.Pieces))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(plan.Pieces)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p := plan.Pieces[i]
				durs[i] = tr.timed("core.ReconstructPiece", op, root, func() {
					results[i], _ = core.ReconstructPiece(ctx, p.Graph, m, opts, p.Nodes)
				})
			}
		}()
	}
	for i := range plan.Pieces {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var sum, slowest time.Duration
	for _, d := range durs {
		sum += d
		slowest = max(slowest, d)
	}
	r.layer("core.piece_ms", ms(sum))
	r.layer("core.piece_max_ms", ms(slowest))

	out := hypergraph.New(g.NumNodes())
	buf := make([]int, 0, 16)
	m0 := readMem()
	d = tr.timed("hypergraph.AddMult", op, root, func() {
		for i, res := range results {
			nodes := plan.Pieces[i].Nodes
			res.Hypergraph.Each(func(local []int, mult int) {
				buf = buf[:0]
				for _, u := range local {
					buf = append(buf, nodes[u])
				}
				out.AddMult(buf, mult)
			})
		}
	})
	r.layer("hypergraph.merge_allocs", float64(deltaOf(m0, readMem()).mallocs))
	r.layer("hypergraph.merge_ms", ms(d))
	return out, tr.end(root)
}
