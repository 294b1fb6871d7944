package corpus

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"marioh/internal/core"
	"marioh/internal/datasets"
)

// -update re-records the golden reconstruction outputs. Run it whenever a
// deliberate engine change moves the bytes:
//
//	go test ./internal/corpus -run TestFamilyGoldenOutput -update
var update = flag.Bool("update", false, "rewrite the golden corpus outputs")

var (
	modelOnce sync.Once
	model     *core.Model
)

// testModel trains the gate-standard classifier (hosts source, seed 1,
// 15 epochs — the exact configuration scripts/parallel-check.sh and friends
// use) once per test process. Golden bytes depend on it, so it must stay
// in lockstep with the shell gates.
func testModel() *core.Model {
	modelOnce.Do(func() {
		src := datasets.MustByName("hosts", 1).Source.Reduced()
		model = core.Train(src.Project(), src, core.TrainOptions{Seed: 1, Epochs: 15})
	})
	return model
}

// TestFamilyGoldenOutput pins every family's serial reconstruction bytes
// under testdata/golden/. Any engine change that moves any family's
// output — intended or not — fails here first, before the shell-level
// gates run; -update re-records after a reviewed, deliberate change.
func TestFamilyGoldenOutput(t *testing.T) {
	m := testModel()
	for _, f := range Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			res, err := core.ReconstructContext(context.Background(), f.Gen(1), m, core.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Hypergraph.Write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", f.Name+".hg")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s (%d unique hyperedges)", path, res.Hypergraph.NumUnique())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden output (run with -update to record): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("reconstruction bytes moved off the recorded golden %s\n"+
					"got %d bytes, want %d — if the change is deliberate, re-record with -update",
					path, buf.Len(), len(want))
			}
		})
	}

	// Every golden file must correspond to a live family, so renames don't
	// leave stale pins behind.
	if !*update {
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if _, ok := ByName(name[:len(name)-len(".hg")]); !ok {
				t.Errorf("stale golden file %s names no family", name)
			}
		}
	}
}
