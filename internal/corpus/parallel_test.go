package corpus

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"marioh/internal/core"
)

// TestParallelRoundMatchesSerialOverCorpus is the corpus-wide determinism
// property test for the parallel round engine: every family, reconstructed
// at Parallelism ∈ {1, 2, 8}, must be byte-identical to the serial golden.
// It runs the engine as shipped, where the per-component search fans out
// but most rounds stay below the enumerate-and-score loop's fan-out point
// (256 cliques); internal/core's TestParallelRoundEngineMatchesSerial
// repeats the sweep with the fan-out forced at the first clique through
// the package's test hook. Named to match the -race matrix ('Parallel'),
// which is where scheduling-dependent divergence would surface.
func TestParallelRoundMatchesSerialOverCorpus(t *testing.T) {
	// Force real goroutine interleaving even on single-core runners.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := testModel()
	for _, f := range Families {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			serial, err := core.ReconstructContext(context.Background(), f.Gen(1), m,
				core.Options{Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(t, serial)

			// The serial run must itself sit on the recorded golden pin —
			// otherwise this test could pass vacuously on drifted bytes.
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", f.Name+".hg"))
			if err != nil {
				t.Fatalf("missing golden output: %v", err)
			}
			if !bytes.Equal(want, golden) {
				t.Fatalf("serial Parallelism=1 output moved off the recorded golden")
			}

			for _, par := range []int{2, 8} {
				res, err := core.ReconstructContext(context.Background(), f.Gen(1), m,
					core.Options{Seed: 1, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderResult(t, res); !bytes.Equal(got, want) {
					t.Errorf("Parallelism=%d diverged from serial: got %d bytes, want %d",
						par, len(got), len(want))
				}
			}
		})
	}
}
