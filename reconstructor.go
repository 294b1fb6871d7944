package marioh

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"marioh/internal/core"
	"marioh/internal/eval"
	"marioh/internal/service"
)

// Version identifies this build of the marioh module (printed by
// `mariohctl version`).
const Version = "0.2.0"

// Progress is a per-round snapshot of a reconstruction run: round number,
// threshold θ, residual edge count and accepted hyperedge occurrences. For
// batch runs, Target is the index of the graph being reconstructed.
type Progress = core.Progress

// ProgressFunc observes reconstruction progress; see WithProgress.
type ProgressFunc = core.ProgressFunc

// ErrNoModel is returned by Reconstruct and ReconstructBatch when the
// Reconstructor has neither been trained nor given a model via WithModel.
var ErrNoModel = errors.New("marioh: no model (call Train first or construct with WithModel)")

// config is the resolved functional-option state of a Reconstructor.
//
// Float fields use internal/core's sentinel encoding (0 = paper default,
// negative = explicit zero); the With* options perform the encoding so
// users always pass plain values.
type config struct {
	variant     service.Variant
	featurizer  Featurizer // nil = the variant's featurizer
	thetaInit   float64
	r           float64
	alpha       float64
	maxRounds   int
	cliqueLimit int
	seed        int64
	epochs      int
	hidden      []int
	supervision float64
	negRatio    float64
	parallelism int
	progress    ProgressFunc
	model       *Model
	sharding    *ShardingOptions
}

func defaultConfig() config {
	v, _ := service.VariantByName("marioh")
	return config{variant: v, supervision: 1, negRatio: 1}
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

// WithVariant selects a registered algorithm variant: "marioh" (the
// default), or the paper's ablations "marioh-m", "marioh-f", "marioh-b".
func WithVariant(name string) Option {
	return func(c *config) error {
		v, ok := service.VariantByName(name)
		if !ok {
			return fmt.Errorf("marioh: unknown variant %q (have %v)", name, service.VariantNames())
		}
		c.variant = v
		return nil
	}
}

// WithFeaturizer selects the clique featurizer by registry name
// ("marioh", "marioh-nomhh", "shyre-count", "shyre-motif", or a custom
// registration), overriding the variant's choice.
func WithFeaturizer(name string) Option {
	return func(c *config) error {
		f, ok := service.FeaturizerByName(name)
		if !ok {
			return fmt.Errorf("marioh: unknown featurizer %q (have %v)", name, service.FeaturizerNames())
		}
		c.featurizer = f
		return nil
	}
}

// WithCustomFeaturizer installs a featurizer implementation directly,
// bypassing the registry.
func WithCustomFeaturizer(f Featurizer) Option {
	return func(c *config) error {
		if f == nil {
			return errors.New("marioh: nil featurizer")
		}
		c.featurizer = f
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
		c.thetaInit = encodeNonNeg(v)
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
		c.r = encodeNonNeg(v)
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
		c.alpha = encodeNonNeg(v)
		return nil
	}
}

// WithMaxRounds bounds the outer reconstruction loop. Default 10000.
func WithMaxRounds(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("marioh: max rounds %d must be > 0", n)
		}
		c.maxRounds = n
		return nil
	}
}

// WithMaxCliqueLimit caps per-round maximal-clique enumeration; 0 means
// unlimited (the default).
func WithMaxCliqueLimit(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("marioh: clique limit %d must be ≥ 0", n)
		}
		c.cliqueLimit = n
		return nil
	}
}

// WithSeed fixes the random seed used for training and reconstruction;
// runs with equal seeds (and inputs) are bit-for-bit reproducible.
func WithSeed(s int64) Option {
	return func(c *config) error {
		c.seed = s
		return nil
	}
}

// WithEpochs sets the classifier's training epochs. Default 60.
func WithEpochs(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("marioh: epochs %d must be > 0", n)
		}
		c.epochs = n
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
		c.hidden = append([]int(nil), widths...)
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
		c.supervision = v
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
		c.negRatio = v
		return nil
	}
}

// WithParallelism bounds the reconstructor's worker fan-out: the
// ReconstructBatch pool, a session's dirty-component pool, and the round
// engine inside every reconstruction (the enumerate-and-score loop and
// the per-component search — see README "Parallel round engine"). 0 (the
// default) uses GOMAXPROCS; 1 forces the fully serial reference pipeline.
// Output bytes are identical at every setting.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("marioh: parallelism %d must be ≥ 0", n)
		}
		c.parallelism = n
		return nil
	}
}

// WithProgress subscribes fn to per-round progress events of every
// Reconstruct / ReconstructBatch / Pipeline call. Events are delivered
// sequentially (batch runs serialize them), so fn needs no locking, but it
// runs on the reconstruction path and must be fast.
func WithProgress(fn ProgressFunc) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}

// ShardingOptions configure the shard-parallel reconstruction engine; see
// WithSharding.
type ShardingOptions struct {
	// Shards is the number of shards the target graph is partitioned
	// into; 0 uses GOMAXPROCS. The reconstruction is byte-identical for
	// every shard count, so this is purely a throughput knob.
	Shards int
	// TargetEdges is the shard size target: connected components owning
	// more edges are split along their bridges (the only intra-component
	// cut that preserves exactness). 0 derives the target from the edge
	// count and shard count.
	TargetEdges int
	// Workers bounds how many shards reconstruct concurrently; 0 uses
	// GOMAXPROCS. Ignored when Executor is set.
	Workers int
	// Executor, when non-nil, runs the per-shard tasks on an external
	// worker pool (e.g. a server job queue) instead of the built-in one.
	// It must execute every task exactly once and return only when all
	// of them finished.
	Executor func(tasks []func())
}

// WithSharding routes Reconstruct (and each target of ReconstructBatch)
// through the shard-parallel engine: the target graph is deterministically
// partitioned — connected components first, oversized components split
// along low-multiplicity bridges — and the shards are reconstructed
// concurrently and merged. The output is byte-identical to the unsharded
// pipeline for any shard count (asserted by the shard-equivalence tests
// and CI job); Progress events additionally carry the shard index. The
// guarantee assumes the built-in featurizers — a custom featurizer that
// reads graph state beyond a clique's component breaks it — and does not
// extend to WithMaxCliqueLimit, whose global budget is applied per shard.
func WithSharding(o ShardingOptions) Option {
	return func(c *config) error {
		if o.Shards < 0 {
			return fmt.Errorf("marioh: shard count %d must be ≥ 0", o.Shards)
		}
		if o.TargetEdges < 0 {
			return fmt.Errorf("marioh: shard target %d must be ≥ 0", o.TargetEdges)
		}
		if o.Workers < 0 {
			return fmt.Errorf("marioh: shard workers %d must be ≥ 0", o.Workers)
		}
		c.sharding = &o
		return nil
	}
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
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return &Reconstructor{cfg: cfg, model: cfg.model}, nil
}

// trainOptions resolves the config into internal/core training options.
func (r *Reconstructor) trainOptions() core.TrainOptions {
	feat := r.cfg.featurizer
	if feat == nil {
		feat, _ = service.FeaturizerByName(r.cfg.variant.Featurizer)
	}
	return core.TrainOptions{
		Featurizer:       feat,
		Hidden:           r.cfg.hidden,
		Epochs:           r.cfg.epochs,
		SupervisionRatio: r.cfg.supervision,
		NegativeRatio:    r.cfg.negRatio,
		Seed:             r.cfg.seed,
	}
}

// reconstructOptions resolves the config into internal/core reconstruction
// options; progress overrides the configured callback when non-nil.
func (r *Reconstructor) reconstructOptions(progress ProgressFunc) core.Options {
	if progress == nil {
		progress = r.cfg.progress
	}
	return core.Options{
		ThetaInit:            r.cfg.thetaInit,
		R:                    r.cfg.r,
		Alpha:                r.cfg.alpha,
		DisableFiltering:     r.cfg.variant.DisableFiltering,
		DisableBidirectional: r.cfg.variant.DisableBidirectional,
		MaxRounds:            r.cfg.maxRounds,
		MaxCliqueLimit:       r.cfg.cliqueLimit,
		Seed:                 r.cfg.seed,
		Parallelism:          r.cfg.parallelism,
		Progress:             progress,
	}
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

// Reconstruct runs MARIOH on one target projected graph — through the
// shard-parallel engine when WithSharding is configured. Cancelling ctx
// stops the run between rounds and mid-search; the partial result built so
// far is returned together with ctx.Err().
func (r *Reconstructor) Reconstruct(ctx context.Context, g *Graph) (*Result, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	return r.reconstruct(ctx, g, m, r.reconstructOptions(nil))
}

// reconstruct dispatches one target to the serial pipeline or the shard
// orchestrator, per the configured sharding options.
func (r *Reconstructor) reconstruct(ctx context.Context, g *Graph, m *Model, opts core.Options) (*Result, error) {
	if s := r.cfg.sharding; s != nil {
		return core.ReconstructSharded(ctx, g, m, opts, core.ShardOptions{
			Shards:      s.Shards,
			TargetEdges: s.TargetEdges,
			Workers:     s.Workers,
			Executor:    s.Executor,
		})
	}
	return core.ReconstructContext(ctx, g, m, opts)
}

// ReconstructBatch reconstructs every target graph using a worker pool of
// WithParallelism size (GOMAXPROCS by default). Results are positionally
// aligned with targets. Each target is reconstructed with the same seed a
// lone Reconstruct call would use, so a batch run is reproducibly equal to
// len(targets) sequential runs regardless of parallelism.
//
// On cancellation the remaining targets are abandoned, in-flight ones stop
// mid-round, and the first error is returned alongside the partial results
// (finished entries stay valid; unstarted ones are nil).
func (r *Reconstructor) ReconstructBatch(ctx context.Context, targets []*Graph) ([]*Result, error) {
	m := r.Model()
	if m == nil {
		return nil, ErrNoModel
	}
	results := make([]*Result, len(targets))
	if len(targets) == 0 {
		return results, ctx.Err()
	}
	workers := r.cfg.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(targets) {
		workers = len(targets)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Serialize progress events across workers and stamp the target index,
	// so one WithProgress callback observes the whole batch without locks.
	var progressMu sync.Mutex
	progressFor := func(target int) ProgressFunc {
		fn := r.cfg.progress
		if fn == nil {
			return nil
		}
		return func(p Progress) {
			p.Target = target
			progressMu.Lock()
			defer progressMu.Unlock()
			fn(p)
		}
	}

	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				opts := r.reconstructOptions(progressFor(i))
				res, err := r.reconstruct(ctx, targets[i], m, opts)
				results[i] = res
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
feed:
	for i := range targets {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
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
	ds, err := GenerateDataset(dataset, r.cfg.seed)
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
func VariantNames() []string { return service.VariantNames() }

// FeaturizerNames lists the featurizers WithFeaturizer accepts, including
// runtime registrations made via RegisterFeaturizer.
func FeaturizerNames() []string { return service.FeaturizerNames() }

// RegisterFeaturizer adds a custom featurizer to the registry under
// f.Name(), making it resolvable by WithFeaturizer and the CLI. It fails
// on empty or duplicate names.
func RegisterFeaturizer(f Featurizer) error { return service.RegisterFeaturizer(f) }
