package durability

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"marioh/internal/core"
	"marioh/internal/graph"
)

// TestSnapshotFingerprintEraSessionResumes pins snapshot compatibility
// across the change of cache key. testdata/fpsession is a durable session
// written while the engine still keyed its cache by per-component content
// fingerprints, so its snapshots carry fingerprints in the id field of
// every c and h line. It was written by
//
//	datagen -dataset hosts -seed 1 -reduced -deltas 120 -delta-seed 1
//	mariohctl train -train hosts.source.hg -seed 1 -epochs 15 -out hosts.model.json
//	mariohctl session -model hosts.model.json -graph hosts.target.graph \
//	    -deltas <first 60 ops> -batch 2 -dir fpsession -seed 1
//
// Resuming it must restore every cached component (an empty Apply
// recomputes nothing), and finishing the stream must match a
// from-scratch rebuild byte for byte.
func TestSnapshotFingerprintEraSessionResumes(t *testing.T) {
	const half, batch = 60, 2
	f, err := os.Open(filepath.Join("testdata", "hosts.model.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "hosts.target.graph"))
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := graph.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join("testdata", "hosts.target.deltas"))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := graph.ReadDeltas(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Seed: 1}
	for _, op := range ops[:half] {
		applyToShadow(shadow, op)
	}

	dir := copyDir(t, filepath.Join("testdata", "fpsession"))
	eng, l := resumeAndCheck(t, dir, m, opts, Options{NoFsync: true}, half/batch, OutcomeClean, golden(t, shadow, m, opts))
	defer l.Close(eng)
	if eng.LastDirty() != 0 {
		t.Fatalf("resumed session recomputed %d of %d components, want 0", eng.LastDirty(), eng.Components())
	}

	var res *core.Result
	for start := half; start < len(ops); start += batch {
		b := ops[start:min(start+batch, len(ops))]
		for _, op := range b {
			applyToShadow(shadow, op)
		}
		if res, err = l.Apply(context.Background(), eng, b); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(render(t, res), golden(t, shadow, m, opts)) {
		t.Fatal("resumed session diverges from a from-scratch rebuild at the end of the stream")
	}
}
