package marioh_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"marioh"
)

// The many-component benchmark reconstructs the disjoint union of
// thousands of small communities through the default path, whose round
// cache re-scans only the communities that changed and whose component
// search fans them over the cores. Run with
//
//	go test -run '^$' -bench BenchmarkShardedReconstruct -benchmem .
//
// `make bench-json` records the results into BENCH_<date>.json. The
// benchmark keeps the name it had while it also timed the sharded engine,
// deleted since, so its serial row stays comparable across recordings.

type shardBenchState struct {
	model *marioh.Model
	g     *marioh.Graph
}

var (
	shardBenchOnce sync.Once
	shardBenchErr  error
	shardBench     shardBenchState
)

// shardBenchSetup trains one model and builds the multi-component bench
// graph: thousands of small independent communities of overlapping
// hyperedges — the production shape of per-user groups, message threads
// and transactions, and the regime of the paper's datasets, whose
// hyperedges are small and cluster locally.
func shardBenchSetup(tb testing.TB) *shardBenchState {
	tb.Helper()
	shardBenchOnce.Do(func() {
		train, err := marioh.GenerateDataset("crime", 1)
		if err != nil {
			shardBenchErr = err
			return
		}
		src := train.Source.Reduced()
		r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(20))
		if err != nil {
			shardBenchErr = err
			return
		}
		model, err := r.Train(context.Background(), src.Project(), src)
		if err != nil {
			shardBenchErr = err
			return
		}

		// The bench corpus: thousands of small independent communities of
		// two hyperedge-like cliques sharing an edge — the production
		// shape of per-user groups, transactions, message threads, and
		// the paper's Fig. 3 ambiguity in miniature. The winning clique
		// of each community resolves in the early rounds; the fragments
		// of the losing one score low and wait many rounds for θ to
		// decay. While a community waits, the round cache keeps its
		// cliques and scores instead of re-scanning it every round.
		rng := rand.New(rand.NewSource(42))
		g := marioh.NewGraph(0)
		offset := 0
		clique := func(nodes []int) {
			for i := 0; i < len(nodes); i++ {
				for j := i + 1; j < len(nodes); j++ {
					if g.Weight(nodes[i], nodes[j]) == 0 {
						g.AddWeight(nodes[i], nodes[j], 1)
					}
				}
			}
		}
		for c := 0; c < 2500; c++ {
			k := 4 + rng.Intn(3)
			g.EnsureNodes(offset + 2*k)
			a := make([]int, k)
			b := make([]int, k)
			for i := 0; i < k; i++ {
				a[i] = offset + i
			}
			b[0], b[1] = offset, offset+1 // b shares the edge {0,1} of a
			for i := 2; i < k; i++ {
				b[i] = offset + k + i - 2
			}
			clique(a)
			clique(b)
			offset += 2*k - 2
		}
		shardBench = shardBenchState{model: model, g: g}
	})
	if shardBenchErr != nil {
		tb.Fatal(shardBenchErr)
	}
	return &shardBench
}

// benchReconstruct times full reconstructions of the bench graph.
func benchReconstruct(b *testing.B) {
	st := shardBenchSetup(b)
	r, err := marioh.New(marioh.WithSeed(9), marioh.WithModel(st.model))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Reconstruct(context.Background(), st.g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedReconstruct times the default path on the
// multi-component bench graph, the library's only many-component
// reconstruction row.
func BenchmarkShardedReconstruct(b *testing.B) {
	b.Run("serial", benchReconstruct)
}
