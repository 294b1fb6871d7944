package marioh

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"marioh/internal/core"
	"marioh/internal/eval"
	"marioh/internal/features"
)

// Version identifies this build of the marioh module (printed by
// `mariohctl version`).
const Version = "0.2.0"

// Progress is a per-round snapshot of a reconstruction run: round number,
// threshold θ, residual edge count and accepted hyperedge occurrences.
// Target is the index of the graph being reconstructed in a batch, and of
// the dirty component being recomputed in a session Apply.
type Progress = core.Progress

// ProgressFunc observes reconstruction progress; see WithProgress.
type ProgressFunc = core.ProgressFunc

// ErrNoModel is returned by Reconstruct and ReconstructBatch when the
// Reconstructor has neither been trained nor given a model via WithModel.
var ErrNoModel = errors.New("marioh: no model (call Train first or construct with WithModel)")

// ErrCliqueBudget is the error a reconstruction fails with when a
// connected component of its residual graph has more maximal cliques in
// some round than WithMaxCliqueLimit allows; match it with errors.Is. The
// message names the round and the budget.
var ErrCliqueBudget = core.ErrCliqueBudget

// config is the resolved functional-option state of a Reconstructor:
// the options core trains and reconstructs with, which the With* options
// write into directly. θ, r and α keep core's sentinel encoding (0 = paper
// default, negative = explicit zero); the With* options perform the
// encoding so users always pass plain values.
type config struct {
	opts  core.Options
	train core.TrainOptions
	// variantFeat is the selected variant's featurizer, which training
	// uses unless WithFeaturizer set train.Featurizer; nil is core's
	// default, the full method's.
	variantFeat features.Featurizer
	model       *Model
}

// Option configures a Reconstructor; see the With* constructors. Options
// validate eagerly, so New fails fast on unknown names or out-of-range
// values.
type Option func(*config) error

// encodeNonNeg maps a user-supplied non-negative value to core's sentinel
// encoding, where the zero value of an options struct means "default".
func encodeNonNeg(v float64) float64 {
	if v == 0 {
		return -1
	}
	return v
}

// variant is one of the paper's four configurations (Tables II and III):
// the featurizer it trains with and the steps it switches off.
type variant struct {
	name                                   string
	featurizer                             features.Featurizer
	disableFiltering, disableBidirectional bool
}

// variants lists the configurations WithVariant accepts, the full method
// first.
var variants = []variant{
	{name: "marioh", featurizer: features.Marioh{}},
	{name: "marioh-m", featurizer: features.ShyreCount{}},
	{name: "marioh-f", featurizer: features.Marioh{}, disableFiltering: true},
	{name: "marioh-b", featurizer: features.Marioh{}, disableBidirectional: true},
}

// WithVariant selects an algorithm variant: "marioh" (the default), or
// the paper's ablations "marioh-m" (multiplicity-unaware SHyRe count
// features), "marioh-f" (no size-2 filtering) and "marioh-b" (no
// sub-clique exploration).
func WithVariant(name string) Option {
	return func(c *config) error {
		for _, v := range variants {
			if v.name == name {
				c.variantFeat = v.featurizer
				c.opts.DisableFiltering = v.disableFiltering
				c.opts.DisableBidirectional = v.disableBidirectional
				return nil
			}
		}
		return fmt.Errorf("marioh: unknown variant %q (have %v)", name, VariantNames())
	}
}

// WithFeaturizer selects the clique featurizer by name — "marioh",
// "marioh-nomhh", "shyre-count" or "shyre-motif" (see FeaturizerNames) —
// overriding the variant's choice.
func WithFeaturizer(name string) Option {
	return func(c *config) error {
		f, ok := features.ByName(name)
		if !ok {
			return fmt.Errorf("marioh: unknown featurizer %q (have %v)", name, features.Names())
		}
		c.train.Featurizer = f
		return nil
	}
}

// WithThetaInit sets the initial classification threshold θ_init ∈ [0, 1].
// Default 0.9. Zero is honored as an explicit zero.
func WithThetaInit(v float64) Option {
	return func(c *config) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("marioh: θ_init %v out of [0, 1]", v)
		}
		c.opts.ThetaInit = encodeNonNeg(v)
		return nil
	}
}

// WithR sets the negative prediction processing ratio r ∈ [0, 100]
// percent. Default 40. Zero is honored as an explicit zero.
func WithR(v float64) Option {
	return func(c *config) error {
		if v < 0 || v > 100 {
			return fmt.Errorf("marioh: r %v out of [0, 100]", v)
		}
		c.opts.R = encodeNonNeg(v)
		return nil
	}
}

// WithAlpha sets the threshold adjust ratio α ≥ 0. Default 1/20. Zero is
// honored as an explicit zero, freezing θ at θ_init.
func WithAlpha(v float64) Option {
	return func(c *config) error {
		if v < 0 {
			return fmt.Errorf("marioh: α %v must be ≥ 0", v)
		}
		c.opts.Alpha = encodeNonNeg(v)
		return nil
	}
}

// WithMaxRounds bounds the outer reconstruction loop. Default 10000.
func WithMaxRounds(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("marioh: max rounds %d must be > 0", n)
		}
		c.opts.MaxRounds = n
		return nil
	}
}

// WithMaxCliqueLimit bounds the maximal cliques of every connected
// component in every round of a reconstruction; 0 means no budget (the
// default). A component past the budget fails the run with
// ErrCliqueBudget. Whether a component is past it depends only on the
// component, so every path and every parallelism fails on the same
// inputs, and a run that succeeds returns the unlimited run's bytes.
func WithMaxCliqueLimit(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("marioh: clique limit %d must be ≥ 0", n)
		}
		c.opts.MaxCliqueLimit = n
		return nil
	}
}

// WithSeed fixes the random seed used for training and reconstruction;
// runs with equal seeds (and inputs) are bit-for-bit reproducible.
func WithSeed(s int64) Option {
	return func(c *config) error {
		c.opts.Seed, c.train.Seed = s, s
		return nil
	}
}

// WithEpochs sets the classifier's training epochs. Default 60.
func WithEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("marioh: epochs %d must be > 0", n)
		}
		c.train.Epochs = n
		return nil
	}
}

// WithHidden sets the classifier MLP's hidden layer widths. Default
// [32, 16].
func WithHidden(widths ...int) Option {
	return func(c *config) error {
		for _, w := range widths {
			if w <= 0 {
				return fmt.Errorf("marioh: hidden width %d must be > 0", w)
			}
		}
		c.train.Hidden = append([]int(nil), widths...)
		return nil
	}
}

// WithSupervisionRatio trains on only this fraction (0, 1] of the source
// hyperedges (the paper's semi-supervised setting). Default 1.
func WithSupervisionRatio(v float64) Option {
	return func(c *config) error {
		if v <= 0 || v > 1 {
			return fmt.Errorf("marioh: supervision ratio %v out of (0, 1]", v)
		}
		c.train.SupervisionRatio = v
		return nil
	}
}

// WithNegativeRatio samples this many negatives per positive during
// training. Default 1.
func WithNegativeRatio(v float64) Option {
	return func(c *config) error {
		if v <= 0 {
			return fmt.Errorf("marioh: negative ratio %v must be > 0", v)
		}
		c.train.NegativeRatio = v
		return nil
	}
}

// WithParallelism bounds the reconstructor's worker fan-out: the
// ReconstructBatch targets, a session's dirty components, and the round
// engine inside every reconstruction (the enumerate-and-score loop, the
// per-component search, and Phase 2's scoring in a round that searches one
// component — see README "Parallel round engine"). Every level fans out
// through the same ordered-claim scheduler. 0 (the default) uses
// GOMAXPROCS; 1 runs every path serially. Output bytes are identical at
// every setting.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("marioh: parallelism %d must be ≥ 0", n)
		}
		c.opts.Parallelism = n
		return nil
	}
}

// WithProgress subscribes fn to per-round progress events of every
// Reconstruct / ReconstructBatch / Pipeline call and session Apply. Events
// are delivered sequentially (batch runs and applies serialize them), so
// fn needs no locking, but it runs on the reconstruction path and must be
// fast. A batch's events carry their target's index in Target, and an
// Apply's events the index of their dirty component.
func WithProgress(fn ProgressFunc) Option {
	return func(c *config) error {
		c.opts.Progress = fn
		return nil
	}
}

// ShardingOptions is the argument of the deprecated WithSharding.
//
// Deprecated: the sharded engine is gone; WithSharding ignores it.
type ShardingOptions struct {
	Shards int
}

// WithSharding does nothing. The sharded engine it selected returned the
// default path's bytes and measured no faster outside noise: the default
// path already reconstructs components in parallel (see WithParallelism).
//
// Deprecated: drop the option; the output does not change.
func WithSharding(ShardingOptions) Option {
	return func(*config) error { return nil }
}

// WithModel attaches a pre-trained model (e.g. one restored via
// LoadModel), so Reconstruct can be called without Train.
func WithModel(m *Model) Option {
	return func(c *config) error {
		if m == nil {
			return errors.New("marioh: nil model")
		}
		c.model = m
		return nil
	}
}

// Reconstructor is MARIOH as a long-lived, configurable service: construct
// one with New, train it once (or attach a saved model), then reconstruct
// any number of target graphs — sequentially, in cancellable batches, or
// as a full generate→train→reconstruct→evaluate pipeline.
//
// A Reconstructor is safe for concurrent use once trained: Train swaps the
// model under a lock, and every Reconstruct* method only reads it.
type Reconstructor struct {
	cfg config

	mu    sync.RWMutex
	model *Model // guarded by mu
}

// New builds a Reconstructor from functional options. The zero-option call
// New() is the paper's exact configuration (multiplicity-aware features,
// θ_init = 0.9, r = 40 %, α = 1/20, a [32, 16] MLP trained 60 epochs).
func New(opts ...Option) (*Reconstructor, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Reconstructor{cfg: cfg, model: cfg.model}, nil
}

// trainOptions is the configured core.TrainOptions, with the variant's
// featurizer unless WithFeaturizer chose one.
func (r *Reconstructor) trainOptions() core.TrainOptions {
	o := r.cfg.train
	if o.Featurizer == nil {
		o.Featurizer = r.cfg.variantFeat
	}
	return o
}

// Train fits the multiplicity-aware classifier on a source projected graph
// and its ground-truth hypergraph, stores it for subsequent Reconstruct
// calls, and returns it. Cancelling ctx aborts between sampling and
// optimization stages and at epoch granularity, returning ctx.Err()
// without replacing a previously stored model.
func (r *Reconstructor) Train(ctx context.Context, g *Graph, h *Hypergraph) (*Model, error) {
	m, err := core.TrainContext(ctx, g, h, r.trainOptions())
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.model = m
	r.mu.Unlock()
	return m, nil
}

// Model returns the trained (or attached) model, or nil.
func (r *Reconstructor) Model() *Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.model
}

// SetModel attaches or replaces the Reconstructor's model after
// construction, the hook model registries (e.g. the mariohd server's) use
// to swap stored classifiers into a configured service. It is safe to call
// concurrently with Reconstruct*; in-flight runs keep the model they
// started with.
func (r *Reconstructor) SetModel(m *Model) error {
	if m == nil {
		return errors.New("marioh: nil model")
	}
	r.mu.Lock()
	r.model = m
	r.mu.Unlock()
	return nil
}

// Reconstruct runs MARIOH on one target projected graph. Cancelling ctx
// stops the run between rounds and mid-search; the partial result built so
// far is returned together with ctx.Err().
func (r *Reconstructor) Reconstruct(ctx context.Context, g *Graph) (*Result, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	if g == nil {
		return nil, errors.New("marioh: nil target graph")
	}
	return core.ReconstructContext(ctx, g, m, r.cfg.opts)
}

// ReconstructBatch reconstructs every target graph, fanned over
// WithParallelism workers (GOMAXPROCS by default), through the same piece
// runner as a session's dirty components (core.RunPieces), each target a
// whole-graph piece. Results are positionally aligned with targets. Each
// target is reconstructed with the same seed a lone Reconstruct call would
// use, so a batch run is reproducibly equal to len(targets) sequential
// runs regardless of parallelism. Progress events carry their target's
// index in Target. A nil target fails the batch before any work starts.
//
// The first target to fail (a cancelled ctx, or ErrCliqueBudget) cancels
// the rest: targets not yet started are abandoned and in-flight ones stop
// mid-round. The first error is returned alongside the results: finished
// entries are complete, the failed and interrupted ones hold their partial
// results, and unstarted ones are nil.
func (r *Reconstructor) ReconstructBatch(ctx context.Context, targets []*Graph) ([]*Result, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	for i, g := range targets {
		if g == nil {
			return nil, fmt.Errorf("marioh: nil target graph at batch index %d", i)
		}
	}
	whole := func(i int) (*Graph, []int) { return targets[i], nil }
	return core.RunPieces(ctx, len(targets), whole, m, r.cfg.opts, r.cfg.opts.Parallelism)
}

// PipelineResult is the outcome of a full Pipeline run.
type PipelineResult struct {
	// Dataset is the generated dataset; training and evaluation use
	// Reduced (multiplicity-1) copies of its halves, the paper's standard
	// protocol.
	Dataset *Dataset
	// Model is the classifier trained on the source half.
	Model *Model
	// Result is the reconstruction of the target half's projection.
	Result *Result
	// Jaccard and MultiJaccard score the reconstruction against the target
	// half.
	Jaccard      float64
	MultiJaccard float64
}

// Pipeline runs the paper's end-to-end protocol on a named synthetic
// dataset: generate it with the configured seed, train on the (reduced)
// source half, reconstruct the target half from its projection alone, and
// evaluate. The trained model is stored for later Reconstruct calls.
func (r *Reconstructor) Pipeline(ctx context.Context, dataset string) (*PipelineResult, error) {
	ds, err := GenerateDataset(dataset, r.cfg.opts.Seed)
	if err != nil {
		return nil, err
	}
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	model, err := r.Train(ctx, src.Project(), src)
	if err != nil {
		return nil, err
	}
	res, err := r.Reconstruct(ctx, tgt.Project())
	if err != nil {
		return nil, err
	}
	return &PipelineResult{
		Dataset:      ds,
		Model:        model,
		Result:       res,
		Jaccard:      eval.Jaccard(tgt, res.Hypergraph),
		MultiJaccard: eval.MultiJaccard(tgt, res.Hypergraph),
	}, nil
}

// VariantNames lists the algorithm variants WithVariant accepts.
func VariantNames() []string {
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	return names
}

// FeaturizerNames lists the featurizers WithFeaturizer accepts.
func FeaturizerNames() []string { return features.Names() }
