package core

import (
	"context"
	"errors"
	"time"

	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// Options configure a reconstruction run (Algorithm 1's inputs θ_init, r,
// α plus the ablation switches).
//
// Sentinel semantics: for the float parameters ThetaInit, R and Alpha the
// zero value means "use the paper's default", so a zero-valued Options is
// always the paper's configuration. A caller that genuinely wants a zero
// parameter (e.g. α = 0 to freeze the threshold) passes any negative
// value, which is resolved to exactly 0. The public marioh.Reconstructor
// options perform this encoding automatically.
type Options struct {
	// ThetaInit is the initial classification threshold θ_init.
	// 0 = default 0.9; negative = exactly 0.
	ThetaInit float64
	// R is the negative prediction processing ratio r in percent.
	// 0 = default 40; negative = exactly 0 (no sub-clique exploration
	// budget).
	R float64
	// Alpha is the threshold adjust ratio α: after each round,
	// θ ← max(θ − α·θ_init, 0). 0 = default 1/20 (the paper's setting);
	// negative = exactly 0, freezing θ at ThetaInit.
	Alpha float64
	// DisableFiltering skips the size-2 filtering step (MARIOH-F).
	DisableFiltering bool
	// DisableBidirectional skips sub-clique exploration (MARIOH-B).
	DisableBidirectional bool
	// MaxRounds bounds the outer loop as a safety valve. Default 10000.
	MaxRounds int
	// MaxCliqueLimit bounds the maximal cliques of each connected
	// component of the residual graph in each round; ≤ 0 means no budget.
	// A component past it fails the run with ErrCliqueBudget. The count
	// depends only on the component, so every entry point and every
	// Parallelism fails on the same inputs, and a run that succeeds
	// returns the unlimited run's bytes.
	MaxCliqueLimit int
	Seed           int64
	// Parallelism bounds the worker fan-out inside each round: the
	// enumerate-and-score loop, the per-component search, and Phase 2's
	// scoring in a round that searches one component each use at most
	// this many workers. 0 = one worker per GOMAXPROCS; 1 = fully serial
	// (the reference pipeline). Output bytes are identical at every
	// setting — see README "Parallel round engine".
	Parallelism int
	// Progress, when non-nil, is invoked after every round of the outer
	// loop with a snapshot of the run. Callbacks must be fast; they run on
	// the reconstruction goroutine.
	Progress ProgressFunc
}

// ErrCliqueBudget is the error a run fails with when a connected
// component of its residual graph has more maximal cliques in a round
// than Options.MaxCliqueLimit allows. The errors that wrap it name the
// round, counted from 1 as Progress counts them, and the budget.
var ErrCliqueBudget = errors.New("core: clique budget exceeded")

// resolveNonNeg implements the Options sentinel for non-negative float
// parameters: 0 means "default", negative means "exactly 0".
func resolveNonNeg(v, def float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return def
	default:
		return v
	}
}

func (o *Options) defaults() {
	o.ThetaInit = resolveNonNeg(o.ThetaInit, 0.9)
	o.R = resolveNonNeg(o.R, 40)
	o.Alpha = resolveNonNeg(o.Alpha, 1.0/20)
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10000
	}
}

// Progress is a per-round snapshot of a reconstruction run, emitted to
// Options.Progress after each outer-loop round (and once after the
// filtering step, with Round 0).
type Progress struct {
	// Target is the index of the piece RunPieces reconstructs: in a
	// marioh batch, the target's index; in a session Apply, the dirty
	// component's index among the Apply's dirty components, which are
	// ordered by their smallest node. 0 for single-target runs.
	Target int
	// Round is the 1-based outer-loop round just completed; 0 reports the
	// filtering step.
	Round int
	// Dirty is the number of components an incremental Session.Apply is
	// recomputing; 0 for non-incremental runs. Every event of one Apply
	// carries the same count, so observers can report "N of D dirty
	// components" style progress.
	Dirty int
	// Theta is the acceptance threshold θ used this round.
	Theta float64
	// EdgesRemaining is the residual graph's edge count after the round.
	EdgesRemaining int
	// AcceptedRound is the number of hyperedge occurrences accepted this
	// round (for Round 0, the size-2 occurrences emitted by filtering).
	AcceptedRound int
	// AcceptedTotal is the cumulative number of accepted occurrences.
	AcceptedTotal int
}

// ProgressFunc observes reconstruction progress.
type ProgressFunc func(Progress)

// StepTimes is the wall-clock breakdown of a reconstruction run, matching
// the segments of the paper's Fig. 6 (filtering vs. bidirectional search).
type StepTimes struct {
	Filtering     time.Duration
	Bidirectional time.Duration
	Rounds        int
}

// Result bundles a reconstructed hypergraph with run metadata.
type Result struct {
	Hypergraph *hypergraph.Hypergraph
	Times      StepTimes
	// FilteredSize2 is the number of size-2 hyperedge occurrences the
	// theoretically-guaranteed filtering emitted.
	FilteredSize2 int
	// DirtyComponents is the number of components an incremental
	// Session.Apply actually recomputed (the rest were merged from the
	// session cache); 0 for non-incremental runs.
	DirtyComponents int
}

// Reconstruct runs MARIOH (Algorithm 1) on the projected graph g with the
// trained classifier m, returning the reconstructed hypergraph. The input
// graph is not modified.
func Reconstruct(g *graph.Graph, m *Model, opts Options) *Result {
	res, _ := ReconstructContext(context.Background(), g, m, opts)
	return res
}

// ReconstructContext is Reconstruct with cancellation: ctx is checked
// between rounds and inside the bidirectional search, so long runs stop
// promptly when the context is cancelled. On cancellation it returns the
// partial reconstruction built so far together with ctx.Err(), and on a
// component past Options.MaxCliqueLimit the rounds before it together
// with an error wrapping ErrCliqueBudget.
//
// It runs the library's one round engine (see reconstructGraph), whose
// round cache reuses the cliques and scores of the components a round left
// unchanged; the output is byte-identical to the cache-free round loop.
func ReconstructContext(ctx context.Context, g *graph.Graph, m *Model, opts Options) (*Result, error) {
	return reconstructGraph(ctx, g, m, opts, nil)
}

// reconstructGraph is the round engine behind every entry point: the
// serial pipeline, pieces and session applies. origID maps g's
// node ids back to the original graph when g is a piece (nil = g is the
// original graph). Each run carries a round cache, so a round
// re-enumerates and re-scores only the components that consumed edges
// since their last enumeration, in place on the residual graph.
//
// Every round decomposes exactly over the connected components of the
// residual graph: Phase 2's sampling streams and the stall fallback are
// keyed per component (see SearchOptions), and every feature is
// component-local (see features.Featurizer), so reconstructing a union of
// components equals the union of their reconstructions, round for round.
// That property is what makes the round cache and the session cache
// exact: a component's result depends only on the component.
func reconstructGraph(ctx context.Context, g *graph.Graph, m *Model, opts Options, origID []int) (*Result, error) {
	opts.defaults()
	work := g.Clone()
	rec := hypergraph.New(g.NumNodes())
	res := &Result{Hypergraph: rec}
	rs := new(roundScratch)
	cache := new(roundCache)

	if err := ctx.Err(); err != nil {
		return res, err
	}
	total := 0
	if !opts.DisableFiltering {
		t0 := time.Now() //lint:randsource stage timing recorded in Result.Times, never in reconstruction output
		res.FilteredSize2 = filter(work, rec, rs.workers(1)[0].feat.Table())
		res.Times.Filtering = time.Since(t0)
		total += res.FilteredSize2
		if opts.Progress != nil {
			opts.Progress(Progress{
				Round: 0, Theta: opts.ThetaInit, EdgesRemaining: work.NumEdges(),
				AcceptedRound: res.FilteredSize2, AcceptedTotal: total,
			})
		}
	}

	theta := opts.ThetaInit
	t1 := time.Now() //lint:randsource stage timing recorded in Result.Times, never in reconstruction output
	defer func() { res.Times.Bidirectional = time.Since(t1) }()
	for round := 0; round < opts.MaxRounds && work.NumEdges() > 0; round++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Times.Rounds++
		accepted, err := search(work, m, SearchOptions{
			Ctx:               ctx,
			Theta:             theta,
			R:                 opts.R,
			DisableSubcliques: opts.DisableBidirectional,
			Round:             round,
			Seed:              opts.Seed,
			OrigID:            origID,
			Parallelism:       opts.Parallelism,
			// Once θ has bottomed out at 0 (or is frozen by α = 0), a
			// component where nothing scored above the threshold can no
			// longer make Phase-1 progress; its edges are consumed as
			// size-2 hyperedges so the loop always terminates. At θ = 0
			// this only happens when scores underflow to exactly 0 — any
			// positive score is accepted — so real models never hit it.
			StallDump: theta == 0 || opts.Alpha == 0,
			budget:    opts.MaxCliqueLimit,
			cache:     cache,
			scratch:   rs,
		}, rec)
		if err != nil {
			return res, err
		}
		total += accepted
		if opts.Progress != nil {
			opts.Progress(Progress{
				Round: res.Times.Rounds, Theta: theta, EdgesRemaining: work.NumEdges(),
				AcceptedRound: accepted, AcceptedTotal: total,
			})
		}
		theta = max(theta-opts.Alpha*opts.ThetaInit, 0)
	}
	return res, ctx.Err()
}
