package marioh_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"marioh"
	"marioh/internal/core"
)

// mustDataset generates a named dataset or fails the test.
func mustDataset(t *testing.T, name string, seed int64) *marioh.Dataset {
	t.Helper()
	ds, err := marioh.GenerateDataset(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestNewZeroOptionsMatchesDeprecatedAPI pins the migration contract: a
// zero-option Reconstructor reproduces, bit for bit on a seeded dataset,
// the zero-value core.Train + core.Reconstruct flow that the removed
// TrainModel and Reconstruct free functions forwarded to.
func TestNewZeroOptionsMatchesDeprecatedAPI(t *testing.T) {
	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	gS, gT := src.Project(), tgt.Project()

	oldModel := core.Train(gS, src, core.TrainOptions{Seed: 1})
	oldRes := core.Reconstruct(gT, oldModel, core.Options{Seed: 1})

	r, err := marioh.New(marioh.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), gS, src); err != nil {
		t.Fatal(err)
	}
	newRes, err := r.Reconstruct(context.Background(), gT)
	if err != nil {
		t.Fatal(err)
	}
	if !oldRes.Hypergraph.Equal(newRes.Hypergraph) {
		t.Fatalf("zero-option Reconstructor diverges from core.Train + core.Reconstruct: old %d/%d vs new %d/%d hyperedges",
			oldRes.Hypergraph.NumUnique(), oldRes.Hypergraph.NumTotal(),
			newRes.Hypergraph.NumUnique(), newRes.Hypergraph.NumTotal())
	}
	if oldRes.FilteredSize2 != newRes.FilteredSize2 {
		t.Fatalf("FilteredSize2: old %d new %d", oldRes.FilteredSize2, newRes.FilteredSize2)
	}
}

// TestReconstructBatchEqualsSequential is the acceptance criterion:
// ReconstructBatch with WithParallelism(4) over 4 generated datasets must
// reproduce the sequential per-target runs exactly (same seeds ⇒ same
// hypergraphs ⇒ same Jaccard).
func TestReconstructBatchEqualsSequential(t *testing.T) {
	names := []string{"crime", "hosts", "enron", "pschool"}
	train := mustDataset(t, names[0], 1).Source.Reduced()

	var targets []*marioh.Graph
	var truths []*marioh.Hypergraph
	for _, name := range names {
		tgt := mustDataset(t, name, 1).Target.Reduced()
		truths = append(truths, tgt)
		targets = append(targets, tgt.Project())
	}

	newTrained := func(opts ...marioh.Option) *marioh.Reconstructor {
		r, err := marioh.New(append([]marioh.Option{marioh.WithSeed(1), marioh.WithEpochs(25)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Train(context.Background(), train.Project(), train); err != nil {
			t.Fatal(err)
		}
		return r
	}

	seq := newTrained()
	var want []*marioh.Result
	for _, g := range targets {
		res, err := seq.Reconstruct(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	batch := newTrained(marioh.WithParallelism(4))
	got, err := batch.ReconstructBatch(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == nil || !want[i].Hypergraph.Equal(got[i].Hypergraph) {
			t.Fatalf("target %d (%s): batch result diverges from sequential run", i, names[i])
		}
		seqJ := marioh.Jaccard(truths[i], want[i].Hypergraph)
		batJ := marioh.Jaccard(truths[i], got[i].Hypergraph)
		if seqJ != batJ {
			t.Fatalf("target %d (%s): Jaccard %v (sequential) != %v (batch)", i, names[i], seqJ, batJ)
		}
	}

	// A second parallel run must be reproducible too.
	again, err := newTrained(marioh.WithParallelism(4)).ReconstructBatch(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !got[i].Hypergraph.Equal(again[i].Hypergraph) {
			t.Fatalf("target %d: parallel batch is not reproducible", i)
		}
	}
}

// TestReconstructCancellation is the acceptance criterion: a context
// cancelled mid-reconstruction stops the run and surfaces ctx.Err().
func TestReconstructCancellation(t *testing.T) {
	ds := mustDataset(t, "eu", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	r, err := marioh.New(
		marioh.WithSeed(1),
		marioh.WithEpochs(10),
		// Cancel from inside the progress stream after the first search
		// round: unambiguously mid-reconstruction.
		marioh.WithProgress(func(p marioh.Progress) {
			rounds++
			if p.Round >= 1 {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
		t.Fatal(err)
	}
	res, err := r.Reconstruct(ctx, tgt.Project())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds == 0 {
		t.Fatal("progress stream never fired")
	}
	if res == nil || res.Hypergraph == nil {
		t.Fatal("cancellation must still return the partial result")
	}

	// An already-cancelled context never starts the run.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := r.Reconstruct(dead, tgt.Project()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}

	// Batch runs propagate cancellation the same way.
	bctx, bcancel := context.WithCancel(context.Background())
	bcancel()
	if _, err := r.ReconstructBatch(bctx, []*marioh.Graph{tgt.Project()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch with cancelled ctx: err = %v", err)
	}
}

// TestNilTargetRejected: a nil target graph is an error, never a panic —
// for a lone Reconstruct, and for a batch, which rejects before it starts
// any worker (a panic inside one would kill the process).
func TestNilTargetRejected(t *testing.T) {
	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	ran := 0
	r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(5),
		marioh.WithProgress(func(marioh.Progress) { ran++ }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
		t.Fatal(err)
	}
	if res, err := r.Reconstruct(context.Background(), nil); err == nil || res != nil {
		t.Fatalf("Reconstruct(nil) = %v, %v; want an error and no result", res, err)
	}
	res, err := r.ReconstructBatch(context.Background(), []*marioh.Graph{tgt.Project(), nil, tgt.Project()})
	if err == nil || res != nil {
		t.Fatalf("ReconstructBatch with a nil entry = %v, %v; want an error and no results", res, err)
	}
	if ran != 0 {
		t.Fatalf("a rejected batch reconstructed %d rounds, want none", ran)
	}
}

// TestTrainCancellation checks the training path: a cancelled context
// surfaces ctx.Err() and leaves no model behind.
func TestTrainCancellation(t *testing.T) {
	ds := mustDataset(t, "crime", 1)
	src := ds.Source.Reduced()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := marioh.New(marioh.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(ctx, src.Project(), src); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Model() != nil {
		t.Fatal("cancelled Train must not store a model")
	}
	if _, err := r.Reconstruct(context.Background(), src.Project()); !errors.Is(err, marioh.ErrNoModel) {
		t.Fatalf("untrained Reconstruct err = %v, want ErrNoModel", err)
	}
}

// TestProgressEvents checks the shape of the progress stream: a filtering
// event (round 0), monotone rounds, decaying θ, and batch target stamping.
func TestProgressEvents(t *testing.T) {
	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()

	var events []marioh.Progress
	r, err := marioh.New(
		marioh.WithSeed(1),
		marioh.WithEpochs(25),
		marioh.WithProgress(func(p marioh.Progress) { events = append(events, p) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reconstruct(context.Background(), tgt.Project()); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("want filtering + ≥1 search events, got %d", len(events))
	}
	if events[0].Round != 0 {
		t.Fatalf("first event must be the filtering step, got round %d", events[0].Round)
	}
	prevTotal := 0
	for i, e := range events {
		if i > 0 {
			if e.Round != events[i-1].Round+1 {
				t.Fatalf("rounds not monotone at event %d: %+v", i, e)
			}
			if e.Theta > events[i-1].Theta && i > 1 {
				t.Fatalf("θ increased at event %d: %+v", i, e)
			}
		}
		if e.AcceptedTotal < prevTotal {
			t.Fatalf("AcceptedTotal decreased at event %d: %+v", i, e)
		}
		prevTotal = e.AcceptedTotal
		if e.Target != 0 {
			t.Fatalf("single-target run must stamp Target 0: %+v", e)
		}
	}
	final := events[len(events)-1]
	if final.EdgesRemaining != 0 {
		t.Fatalf("run completed but EdgesRemaining = %d", final.EdgesRemaining)
	}

	// Batch runs stamp the target index and serialize delivery.
	var mu sync.Mutex
	seen := map[int]bool{}
	rb, err := marioh.New(
		marioh.WithSeed(1), marioh.WithEpochs(25), marioh.WithParallelism(2),
		marioh.WithModel(r.Model()),
		marioh.WithProgress(func(p marioh.Progress) {
			mu.Lock()
			seen[p.Target] = true
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.ReconstructBatch(context.Background(), []*marioh.Graph{tgt.Project(), src.Project()}); err != nil {
		t.Fatal(err)
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("batch progress must stamp both targets, saw %v", seen)
	}
}

// TestVariantsAndRegistry drives the named-variant path end to end and the
// option validation surface.
func TestVariantsAndRegistry(t *testing.T) {
	if names := marioh.VariantNames(); len(names) != 4 {
		t.Fatalf("VariantNames = %v", names)
	}
	if len(marioh.FeaturizerNames()) < 4 {
		t.Fatalf("FeaturizerNames = %v", marioh.FeaturizerNames())
	}

	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	for _, variant := range marioh.VariantNames() {
		r, err := marioh.New(marioh.WithVariant(variant), marioh.WithSeed(1), marioh.WithEpochs(10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
			t.Fatal(err)
		}
		res, err := r.Reconstruct(context.Background(), tgt.Project())
		if err != nil {
			t.Fatal(err)
		}
		if res.Hypergraph.NumUnique() == 0 {
			t.Fatalf("variant %q reconstructed nothing", variant)
		}
		if variant == "marioh-f" && res.FilteredSize2 != 0 {
			t.Fatalf("marioh-f must skip filtering, emitted %d", res.FilteredSize2)
		}
	}

	for _, bad := range []marioh.Option{
		marioh.WithVariant("nope"),
		marioh.WithFeaturizer("nope"),
		marioh.WithThetaInit(1.5),
		marioh.WithR(-3),
		marioh.WithAlpha(-1),
		marioh.WithEpochs(0),
		marioh.WithHidden(0),
		marioh.WithSupervisionRatio(0),
		marioh.WithParallelism(-1),
		marioh.WithModel(nil),
		marioh.WithMaxCliqueLimit(-1),
	} {
		if _, err := marioh.New(bad); err == nil {
			t.Fatal("invalid option must fail New")
		}
	}
}

// TestVariantTable pins the four variants: their names in order and the
// switches marioh-f and marioh-b pass to core.
func TestVariantTable(t *testing.T) {
	if got, want := marioh.VariantNames(), []string{"marioh", "marioh-m", "marioh-f", "marioh-b"}; !slices.Equal(got, want) {
		t.Fatalf("VariantNames = %v, want %v", got, want)
	}
	ctx := context.Background()
	ds := mustDataset(t, "eu", 1)
	src, g := ds.Source.Reduced(), ds.Target.Reduced().Project()
	train := func(opts ...marioh.Option) *marioh.Model {
		r, err := marioh.New(append([]marioh.Option{marioh.WithSeed(1), marioh.WithEpochs(10)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Train(ctx, src.Project(), src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := train()
	seen := map[string]string{}
	for _, tc := range []struct {
		variant string
		opts    core.Options
	}{
		{"marioh", core.Options{Seed: 1}},
		{"marioh-f", core.Options{Seed: 1, DisableFiltering: true}},
		{"marioh-b", core.Options{Seed: 1, DisableBidirectional: true}},
	} {
		r, err := marioh.New(marioh.WithVariant(tc.variant), marioh.WithSeed(1), marioh.WithModel(m))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Reconstruct(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		got, want := renderResult(t, res), renderResult(t, core.Reconstruct(g, m, tc.opts))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes differ from core.Reconstruct with %+v", tc.variant, tc.opts)
		}
		if prev, ok := seen[string(got)]; ok {
			t.Fatalf("%s reconstructs eu as %s does: the input does not tell the switches apart", tc.variant, prev)
		}
		seen[string(got)] = tc.variant
	}
}

// TestVariantResolution pins what the variant and featurizer options
// resolve to: the full method with its own featurizer by default,
// shyre-count for marioh-m, a featurizer named next to marioh-b that
// keeps marioh-b's switch, and an unknown variant or featurizer name
// failing New with an error that lists the valid names.
func TestVariantResolution(t *testing.T) {
	ctx := context.Background()
	ds := mustDataset(t, "crime", 1)
	src, g := ds.Source.Reduced(), ds.Target.Reduced().Project()
	train := func(opts ...marioh.Option) *marioh.Model {
		r, err := marioh.New(append([]marioh.Option{marioh.WithSeed(1), marioh.WithEpochs(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Train(ctx, src.Project(), src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if name := train().Feat.Name(); name != "marioh" {
		t.Fatalf("the default variant trains with %q, want marioh", name)
	}
	if name := train(marioh.WithVariant("marioh-m")).Feat.Name(); name != "shyre-count" {
		t.Fatalf("marioh-m trains with %q, want shyre-count", name)
	}

	opts := []marioh.Option{marioh.WithVariant("marioh-b"), marioh.WithFeaturizer("shyre-motif")}
	m := train(opts...)
	if name := m.Feat.Name(); name != "shyre-motif" {
		t.Fatalf("marioh-b with shyre-motif trains with %q", name)
	}
	r, err := marioh.New(append(opts, marioh.WithSeed(1), marioh.WithModel(m))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Reconstruct(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Reconstruct(g, m, core.Options{Seed: 1, DisableBidirectional: true})
	if !bytes.Equal(renderResult(t, res), renderResult(t, want)) {
		t.Fatal("marioh-b with shyre-motif: bytes differ from core.Reconstruct without bidirectional search")
	}

	for _, c := range []struct {
		opt   marioh.Option
		names []string
	}{
		{marioh.WithVariant("nope"), marioh.VariantNames()},
		{marioh.WithFeaturizer("nope"), marioh.FeaturizerNames()},
	} {
		_, err := marioh.New(c.opt)
		if err == nil {
			t.Fatal("unknown name must fail New")
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not list %q", err, name)
			}
		}
	}
}

// TestFeaturizerOverridesVariant: WithFeaturizer picks the featurizer a
// Reconstructor trains with over the variant's, whichever of the two
// options comes first.
func TestFeaturizerOverridesVariant(t *testing.T) {
	src := mustDataset(t, "crime", 1).Source.Reduced()
	for _, name := range marioh.FeaturizerNames() {
		for _, opts := range [][]marioh.Option{
			{marioh.WithVariant("marioh-m"), marioh.WithFeaturizer(name)},
			{marioh.WithFeaturizer(name), marioh.WithVariant("marioh-m")},
		} {
			r, err := marioh.New(append(opts, marioh.WithSeed(1), marioh.WithEpochs(1))...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := r.Train(context.Background(), src.Project(), src)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Feat.Name(); got != name {
				t.Fatalf("WithFeaturizer(%q) with marioh-m trains with %q", name, got)
			}
		}
	}
}

// TestExplicitZeroOptions pins the fixed sentinel semantics: WithAlpha(0)
// really freezes θ instead of silently falling back to the default 1/20.
func TestExplicitZeroOptions(t *testing.T) {
	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()

	var thetas []float64
	r, err := marioh.New(
		marioh.WithSeed(1), marioh.WithEpochs(10),
		marioh.WithAlpha(0), marioh.WithMaxRounds(5),
		marioh.WithProgress(func(p marioh.Progress) {
			if p.Round > 0 {
				thetas = append(thetas, p.Theta)
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reconstruct(context.Background(), tgt.Project()); err != nil {
		t.Fatal(err)
	}
	if len(thetas) == 0 {
		t.Fatal("no search rounds observed")
	}
	for _, th := range thetas {
		if th != 0.9 {
			t.Fatalf("α = 0 must freeze θ at 0.9, saw %v (history %v)", th, thetas)
		}
	}
}

// TestPipeline runs the one-call protocol and checks it matches the manual
// train + reconstruct flow.
func TestPipeline(t *testing.T) {
	r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(25))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.Pipeline(context.Background(), "crime")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Model == nil || pr.Result == nil || pr.Dataset == nil {
		t.Fatalf("incomplete pipeline result: %+v", pr)
	}
	if pr.Jaccard <= 0 || pr.Jaccard > 1 {
		t.Fatalf("Jaccard = %v", pr.Jaccard)
	}
	if r.Model() != pr.Model {
		t.Fatal("Pipeline must store its trained model")
	}
	if _, err := r.Pipeline(context.Background(), "no-such-dataset"); err == nil {
		t.Fatal("unknown dataset must error")
	}
}
