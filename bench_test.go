// Package marioh_test holds the benchmark harness: one testing.B per table
// and figure of the paper's evaluation section (run the full versions with
// cmd/benchall), plus micro-benchmarks for the substrate operations that
// dominate reconstruction time and the ablation benches called out in
// DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package marioh_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"marioh"
	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/downstream"
	"marioh/internal/experiments"
	"marioh/internal/gcn"
	"marioh/internal/hypergraph"
	"marioh/internal/mlp"
)

// benchCfg keeps per-iteration table runs around a second.
func benchCfg(ds ...string) experiments.RunConfig {
	return experiments.RunConfig{
		Seeds:    []int64{1},
		Timeout:  8 * time.Second,
		Datasets: ds,
		Quick:    true,
	}
}

// ---- Tables -------------------------------------------------------------

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI(1)
	}
}

func BenchmarkTableII(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.TableII(cfg)
	}
}

func BenchmarkTableIII(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.TableIII(cfg)
	}
}

func BenchmarkTableIV(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.TableIV(cfg)
	}
}

func BenchmarkTableV(b *testing.B) {
	cfg := benchCfg() // Quick mode uses the non-DBLP transfer pairs
	for i := 0; i < b.N; i++ {
		experiments.TableV(cfg)
	}
}

func BenchmarkTableVI(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.TableVI(cfg)
	}
}

func BenchmarkTableVII(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.TableVII(cfg)
	}
}

func BenchmarkTableVIII(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.TableVIII(cfg)
	}
}

func BenchmarkTableIX(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.TableIX(cfg)
	}
}

// ---- Figures ------------------------------------------------------------

func BenchmarkFig4(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.Fig4(cfg)
	}
}

func BenchmarkFig5(b *testing.B) {
	cfg := benchCfg("crime", "hosts", "directors")
	for i := 0; i < b.N; i++ {
		experiments.Fig5(cfg)
	}
}

func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg("crime", "hosts")
	for i := 0; i < b.N; i++ {
		experiments.Fig6(cfg)
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg)
	}
}

// ---- Core pipeline benches ------------------------------------------------
//
// These exercise the public Reconstructor service API, so regressions in
// the option plumbing and context threading show up here too.

// trainedSetup caches a trained Reconstructor and target graph per dataset.
type trainedSetup struct {
	model *marioh.Model
	gT    *marioh.Graph
}

var setups = map[string]*trainedSetup{}

func setup(b *testing.B, name string) *trainedSetup {
	b.Helper()
	if s, ok := setups[name]; ok {
		return s
	}
	ds := datasets.MustByName(name, 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(25))
	if err != nil {
		b.Fatal(err)
	}
	model, err := r.Train(context.Background(), src.Project(), src)
	if err != nil {
		b.Fatal(err)
	}
	s := &trainedSetup{model: model, gT: tgt.Project()}
	setups[name] = s
	return s
}

// reconstructor builds a service instance around the cached model.
func (s *trainedSetup) reconstructor(b *testing.B, opts ...marioh.Option) *marioh.Reconstructor {
	b.Helper()
	r, err := marioh.New(append([]marioh.Option{marioh.WithSeed(1), marioh.WithModel(s.model)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkReconstruct times the default path on the paper's datasets.
// dblp, mag-topcs and foursquare are mostly isolated nodes and small
// components. Each row trains its model inside its own b.Run, so a
// -bench filter that selects one row trains only that dataset.
func BenchmarkReconstruct(b *testing.B) {
	for _, name := range []string{"crime", "hosts", "eu", "dblp", "mag-topcs", "foursquare"} {
		b.Run(name, func(b *testing.B) {
			s := setup(b, name)
			r := s.reconstructor(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Reconstruct(context.Background(), s.gT); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructBatch measures the worker-pool fan-out over four
// targets against the same batch run sequentially.
func BenchmarkReconstructBatch(b *testing.B) {
	s := setup(b, "hosts")
	targets := []*marioh.Graph{s.gT, s.gT, s.gT, s.gT}
	for _, workers := range []int{1, 4} {
		r := s.reconstructor(b, marioh.WithParallelism(workers))
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.ReconstructBatch(context.Background(), targets); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benches: the design choices DESIGN.md calls out, selected
// through the named-variant registry.

func BenchmarkAblationFiltering(b *testing.B) {
	s := setup(b, "hosts")
	for _, variant := range []string{"marioh", "marioh-f"} {
		r := s.reconstructor(b, marioh.WithVariant(variant))
		b.Run(fmt.Sprintf("variant=%s", variant), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Reconstruct(context.Background(), s.gT); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationBidirectional(b *testing.B) {
	s := setup(b, "hosts")
	for _, variant := range []string{"marioh", "marioh-b"} {
		r := s.reconstructor(b, marioh.WithVariant(variant))
		b.Run(fmt.Sprintf("variant=%s", variant), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Reconstruct(context.Background(), s.gT); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrainClassifier(b *testing.B) {
	ds := datasets.MustByName("hosts", 1)
	src := ds.Source.Reduced()
	gS := src.Project()
	r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(25))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Train(context.Background(), gS, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterStep(b *testing.B) {
	ds := datasets.MustByName("eu", 1)
	g := ds.Target.Reduced().Project()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := g.Clone()
		rec := hypergraph.New(g.NumNodes())
		b.StartTimer()
		core.Filter(work, rec)
	}
}

// ---- Substrate micro-benches ----------------------------------------------

func BenchmarkKeyEncoding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := make([][]int, 1024)
	for i := range edges {
		s := 2 + rng.Intn(6)
		e := make([]int, s)
		for j := range e {
			e[j] = rng.Intn(100000)
		}
		edges[i] = e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hypergraph.Key(edges[i%len(edges)])
	}
}

// BenchmarkKeyEncodingNaive is the ablation comparator for the delta-varint
// key: a fmt-based string join, the obvious alternative encoding.
func BenchmarkKeyEncodingNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := make([][]int, 1024)
	for i := range edges {
		s := 2 + rng.Intn(6)
		e := make([]int, s)
		for j := range e {
			e[j] = rng.Intn(100000)
		}
		edges[i] = e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprint(edges[i%len(edges)])
	}
}

func BenchmarkProjection(b *testing.B) {
	ds := datasets.MustByName("eu", 1)
	h := ds.Target.Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Project()
	}
}

func BenchmarkMaximalCliques(b *testing.B) {
	for _, name := range []string{"hosts", "eu"} {
		ds := datasets.MustByName(name, 1)
		g := ds.Target.Reduced().Project()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.MaximalCliques(2)
			}
		})
	}
}

func BenchmarkSumMinCommonWeight(b *testing.B) {
	ds := datasets.MustByName("eu", 1)
	g := ds.Target.Reduced().Project()
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.SumMinCommonWeight(e.U, e.V)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	net := mlp.New(23, []int{32, 16}, 1)
	x := make([]float64, 23)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

func BenchmarkGCNTrain(b *testing.B) {
	ds := datasets.MustByName("hosts", 1)
	g := ds.Target.Reduced().Project()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gcn.Train(g, gcn.Options{Seed: 1, Epochs: 30})
	}
}

// BenchmarkLinkPredEmbeddings compares the paper's GCN link embeddings
// against the spectral substitute on the same input (ablation called out
// in DESIGN.md).
func BenchmarkLinkPredEmbeddings(b *testing.B) {
	ds := datasets.MustByName("hosts", 1)
	g := ds.Target.Reduced().Project()
	h := ds.Target.Reduced()
	for _, useGCN := range []bool{false, true} {
		b.Run(fmt.Sprintf("gcn=%v", useGCN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				downstream.LinkPredictionAUC(g, h, downstream.LinkPredOptions{Seed: 1, UseGCN: useGCN})
			}
		})
	}
}

// BenchmarkParallelScoring exercises the scoring fan-out on a round with
// many maximal cliques (the eu analog) against GOMAXPROCS=1.
func BenchmarkParallelScoring(b *testing.B) {
	s := setup(b, "eu")
	for _, procs := range []int{1, 0} {
		name := "gomaxprocs=all"
		if procs == 1 {
			name = "gomaxprocs=1"
		}
		b.Run(name, func(b *testing.B) {
			if procs == 1 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			cliques := s.gT.MaximalCliques(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ScoreCliques(s.gT, s.model, cliques)
			}
		})
	}
}

func BenchmarkHypergraphJaccard(b *testing.B) {
	a := datasets.MustByName("eu", 1).Target.Reduced()
	c := datasets.MustByName("eu", 2).Target.Reduced()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = benchmarkJaccardResult(a, c)
	}
}

func benchmarkJaccardResult(a, c *hypergraph.Hypergraph) int {
	n := 0
	for _, k := range a.Keys() {
		if c.ContainsKey(k) {
			n++
		}
	}
	return n
}
