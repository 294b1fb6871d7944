package main

import (
	"context"
	"fmt"
	"time"

	"marioh"
	"marioh/internal/eval"
)

// euTargets relabeled copies of the eu target per run: an op reconstructs
// them in turn, so a run's median spans several copies instead of resting
// on one. A copy's cost depends on its relabeling by a few percent either
// way; with three copies a seed whose copies happened to be cheap read 8%
// low.
const euTargets = 6

// runEU is the eu-dense workload: a closed loop with one caller
// reconstructing the run's relabeled eu targets in turn at default
// Parallelism, every output byte-compared with the serial reference of
// its target.
func runEU(r *runner) error {
	name, k := r.sc.eu, euTargets
	in, err := makeInput(name, r.seed, k)
	if err != nil {
		return err
	}
	r.meta["loop"] = "closed"
	r.meta["clients"] = 1
	r.meta["dataset"] = fmt.Sprintf("%s (generation seed 1; %d copies of its target, node ids permuted by the run seed)", name, k)
	r.meta["target_nodes"] = in.targets[0].NumNodes()
	r.meta["target_edges"] = in.targets[0].NumEdges()

	var model *marioh.Model
	if err := r.setupK(3, func(int) error {
		m, err := r.trainModel(in)
		model = m
		return err
	}); err != nil {
		return err
	}
	rec, err := marioh.New(marioh.WithSeed(r.seed), marioh.WithModel(model))
	if err != nil {
		return err
	}
	wants := make([][]byte, k)
	var jaccard float64
	rounds := make([]int, k)
	for j, g := range in.targets {
		want, h, err := reference(model, g, r.seed)
		if err != nil {
			return err
		}
		wants[j] = want
		jaccard += eval.Jaccard(in.truths[j], h)
	}
	r.metrics["jaccard"] = jaccard / float64(k)
	ctx := context.Background()
	// op reconstructs target i mod k; check time is returned
	// separately so the loop can take it off the phase.
	op := func(i int) (lat, check time.Duration) {
		j := (i%k + k) % k
		t0 := time.Now()
		res, err := rec.Reconstruct(ctx, in.targets[j])
		lat = time.Since(t0)
		c0 := time.Now()
		if err != nil {
			r.opFailed("op %d: %v", i, err)
		} else {
			r.same(encode(res.Hypergraph), wants[j], fmt.Sprintf("op %d", i))
			rounds[j] = res.Times.Rounds
		}
		return lat, time.Since(c0)
	}
	op(-1) // warm-up, not timed
	r.attempted++
	r.meta["rounds"] = rounds

	if !r.traced {
		r.latencyMetrics(r.loop(op))
		r.finishRSS()
		return nil
	}
	return r.traceLibrary(in, model, wants, op)
}

// traceLibrary is eu-dense's traced run: untraced API ops alternate with
// traced round-by-round replays of the same op, then the layers the
// workload itself does not reach are swept once on its first target.
func (r *runner) traceLibrary(in *input, model *marioh.Model, wants [][]byte, op func(int) (time.Duration, time.Duration)) error {
	if err := r.checkTrainReplay(in, model); err != nil {
		return err
	}
	k := len(in.targets)
	var apiLat, replayLat []time.Duration
	var mem []memDelta
	r.loop(func(i int) (time.Duration, time.Duration) {
		if i%2 == 0 {
			m0 := readMem()
			lat, check := op(i)
			mem = append(mem, deltaOf(m0, readMem()))
			apiLat = append(apiLat, lat)
			return lat, check
		}
		g, want := in.targets[i%k], wants[i%k]
		out, d := r.replayRounds(i, g, model, r.seed)
		c0 := time.Now()
		r.same(encode(out), want, fmt.Sprintf("round replay %d", i))
		replayLat = append(replayLat, d)
		return d, time.Since(c0)
	})
	r.memMetrics(mem)
	r.overhead(apiLat, replayLat)

	g, want := in.targets[0], wants[0]
	out, _ := r.replaySharded(-1, g, model, r.seed)
	r.same(encode(out), want, "sharded sweep")
	r.attempted++
	if err := r.sweepSession(g, model, r.seed, want); err != nil {
		return err
	}
	return r.sweepServe(g, model, r.seed, want)
}

// checkTrainReplay replays training from outside and checks that it
// reproduces the model the public API trained.
func (r *runner) checkTrainReplay(in *input, model *marioh.Model) error {
	replayed := r.replayTrain(in.src, in.srcGraph, trainSeed)
	a, err := modelBytes(model)
	if err != nil {
		return err
	}
	b, err := modelBytes(replayed)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		r.problem("training replay did not reproduce the trained model")
	}
	return nil
}

// memMetrics records marioh.alloc_mb_per_op and marioh.gc_per_op from the
// MemStats deltas around untraced ops.
func (r *runner) memMetrics(mem []memDelta) {
	for _, d := range mem {
		r.layer("marioh.alloc_mb_per_op", float64(d.allocBytes)/1e6)
		r.layer("marioh.gc_per_op", float64(d.gcs))
	}
}

// overhead records trace.overhead_pct: the median traced replay of an op
// against the median untraced op of the same run.
func (r *runner) overhead(api, traced []time.Duration) {
	a, t := median(sortedMs(api)), median(sortedMs(traced))
	if a > 0 && t > 0 {
		r.metrics["trace.overhead_pct"] = 100 * (t/a - 1)
	}
	r.meta["trace_overhead_samples"] = map[string]int{"untraced": len(api), "traced": len(traced)}
}
