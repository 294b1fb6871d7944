package incremental

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/graph"
)

// TestEngineStateRestoreRoundTrip: State → Restore must reproduce the
// engine exactly — the restored engine's next Apply recomputes nothing
// and emits byte-identical output.
func TestEngineStateRestoreRoundTrip(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 3}
	eng := New(g, m, opts, 0)
	rng := rand.New(rand.NewSource(11))
	bound := datasets.MustByName("crime", 1).Target.Reduced().Project().NumNodes()
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	base, err := eng.Apply(context.Background(), randomBatch(rng, eng.Graph(), 8, bound))
	if err != nil {
		t.Fatal(err)
	}

	st := eng.State()
	if st.Applies != 2 || len(st.Comps) == 0 || len(st.Entries) == 0 {
		t.Fatalf("state: applies %d, %d comps, %d entries", st.Applies, len(st.Comps), len(st.Entries))
	}
	restored := Restore(st, m, opts, 0)
	if restored.Applies() != 2 {
		t.Fatalf("restored applies = %d, want 2", restored.Applies())
	}
	res, err := restored.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents != 0 {
		t.Fatalf("restored engine recomputed %d components, want 0", res.DirtyComponents)
	}
	if !bytes.Equal(render(t, res), render(t, base)) {
		t.Fatal("restored engine output diverges from the original")
	}
}

// TestEngineStateOmitsTouchedFingerprints: after Mutate (the WAL-replay
// entry point) the affected components' cache entries are unproven for
// the mutated graph; State must leave them out so a restore recomputes
// them instead of trusting them.
func TestEngineStateOmitsTouchedFingerprints(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := core.Options{Seed: 1}
	shadow := g.Clone()
	eng := New(g, m, opts, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	before := len(eng.State().Comps)
	if before == 0 {
		t.Fatal("no cached components after a clean Apply")
	}

	e0 := eng.Graph().Edges()[0]
	op := graph.DeltaOp{Kind: graph.DeltaSet, U: e0.U, V: e0.V, W: e0.W + 1}
	eng.Mutate([]graph.DeltaOp{op})
	applyToShadow(shadow, op)

	st := eng.State()
	if len(st.Comps) != before-1 {
		t.Fatalf("state kept %d cached components, want %d (touched one dropped)", len(st.Comps), before-1)
	}
	fpBefore := eng.Fingerprint()

	// A restore from this mid-batch state must still converge on the
	// rebuilt graph's exact output.
	restored := Restore(st, m, opts, 0)
	if restored.Fingerprint() != fpBefore {
		t.Fatal("restored graph fingerprint diverges")
	}
	res, err := restored.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyComponents == 0 {
		t.Fatal("restore trusted a stale entry for the mutated component")
	}
	want, err := core.ReconstructContext(context.Background(), shadow, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), render(t, want)) {
		t.Fatal("restored output diverges from full rebuild of the mutated graph")
	}
}
