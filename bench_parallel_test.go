package marioh_test

import (
	"context"
	"testing"

	"marioh"
	"marioh/internal/corpus"
)

// Parallel round-engine benchmarks, part of the substrate set recorded by
// `make bench-json` and gated by cmd/benchdiff. They sweep the worker
// count over the two giant-component corpus families — powerlaw-hubs (one
// huge hub component) and clique-cores (overlapping dense cores) — which
// are exactly the shapes the parallel engine targets. par=1 is the serial
// reference (arena-backed, so its allocs/op are the number to watch on
// single-core recordings); par=max is GOMAXPROCS.
//
// Run with
//
//	go test -run '^$' -bench BenchmarkParallelRound -benchmem .

// parallelBenchFamilies are the giant-component shapes worth sweeping.
var parallelBenchFamilies = []string{"powerlaw-hubs", "clique-cores"}

// parallelBenchWorkers is the sweep: serial, a typical small fan-out, and
// everything the machine has (0 = GOMAXPROCS).
func parallelBenchWorkers() []struct {
	label string
	par   int
} {
	return []struct {
		label string
		par   int
	}{
		// The max label deliberately omits the core count so benchmark
		// names — and the benchdiff gate keyed on them — are stable
		// across machines.
		{label: "par=1", par: 1},
		{label: "par=4", par: 4},
		{label: "par=max", par: 0},
	}
}

// BenchmarkParallelRound measures full reconstruction through the parallel
// round engine at each parallelism setting.
func BenchmarkParallelRound(b *testing.B) {
	model := corpusBenchSetup(b)
	for _, name := range parallelBenchFamilies {
		f, ok := corpus.ByName(name)
		if !ok {
			b.Fatalf("corpus family %q missing", name)
		}
		g := f.Gen(1)
		for _, w := range parallelBenchWorkers() {
			r, err := marioh.New(marioh.WithSeed(1), marioh.WithModel(model), marioh.WithParallelism(w.par))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/"+w.label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Reconstruct(context.Background(), g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
