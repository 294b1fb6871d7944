package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"marioh/internal/corpus"
	"marioh/internal/datasets"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// forceFanout makes the enumerate-and-score loop start its helpers at the
// first known clique, so tiny rounds exercise the fan-out, until the test
// ends.
func forceFanout(t testing.TB) {
	fanoutAt = 1
	t.Cleanup(func() { fanoutAt = fanoutCliques })
}

// countingFeaturizer is features.Marioh that counts its maximal-clique
// feature calls and records the worker scratches that made them: each
// loop worker owns one scorer, so distinct scratches are distinct workers.
type countingFeaturizer struct {
	features.Marioh
	calls *atomic.Int64
	mu    *sync.Mutex
	seen  map[*features.Scratch]bool
}

func newCountingFeaturizer() countingFeaturizer {
	return countingFeaturizer{calls: new(atomic.Int64), mu: new(sync.Mutex), seen: map[*features.Scratch]bool{}}
}

func (f countingFeaturizer) AppendFeatures(dst []float64, s *features.Scratch, g *graph.Graph, q []int, maximal bool) []float64 {
	f.calls.Add(1)
	f.mu.Lock()
	f.seen[s] = true
	f.mu.Unlock()
	return f.Marioh.AppendFeatures(dst, s, g, q, maximal)
}

// withFeaturizer returns a copy of m that extracts features through f.
func withFeaturizer(m *Model, f features.Featurizer) *Model {
	c := *m
	c.Feat = f
	return &c
}

// TestScoreFanoutHonorsParallelism is the regression test for the bug
// where round scoring fanned out to GOMAXPROCS whatever the configured
// parallelism: one worker must mean one worker, however many cliques a
// round scores and wherever the fan-out point sits.
func TestScoreFanoutHonorsParallelism(t *testing.T) {
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := resolveWorkers(3); got != 3 {
		t.Errorf("resolveWorkers(3) = %d, want 3", got)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, g := pipelineTestSetup(t)
	f := newCountingFeaturizer()
	scored, _ := enumerateScored(context.Background(), g, withFeaturizer(m, f), nil, 0, 1, nil)
	if len(scored) < fanoutCliques {
		t.Fatalf("only %d cliques; the round must exceed the default fan-out point", len(scored))
	}
	if len(f.seen) != 1 {
		t.Fatalf("Parallelism 1 scored on %d workers, want 1", len(f.seen))
	}
}

// pipelineTestSetup trains a small model over the eu dataset's projected
// graph, the same substrate the other core tests score against.
func pipelineTestSetup(t testing.TB) (*Model, *graph.Graph) {
	t.Helper()
	ds := datasets.MustByName("eu", 1)
	src := ds.Source.Reduced()
	g := src.Project()
	m := Train(g, src, TrainOptions{Seed: 1, Epochs: 10})
	return m, g
}

// randomTestGraph builds a seeded G(n, p)-style graph with a planted
// overlapping clique over every fourth node, the shapes that exercise
// both the per-seed fan-out and the bitset rows.
func randomTestGraph(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddWeight(u, v, 1+rng.Intn(3))
			}
		}
	}
	for u := 0; u < n; u += 4 {
		for v := u + 4; v < n && v < u+20; v += 4 {
			if !g.HasEdge(u, v) {
				g.AddWeight(u, v, 1)
			}
		}
	}
	return g
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// TestPipelineEnumerateScoredMatchesSerial: with the fan-out forced at the
// first clique, the loop's output at every worker count and limit is the
// serial EachMaximalClique stream's prefix, in order, with scores that
// bit-match serial scoring. (A cached round's restriction to its dirty
// components is pinned by graph's TestCliqueSeederWithinMatchesFilteredStream
// and end to end by TestRoundCacheMatchesUncached.)
func TestPipelineEnumerateScoredMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{
		{"sparse", randomTestGraph(60, 0.05, 1)},
		{"medium", randomTestGraph(48, 0.2, 2)},
		{"dense", randomTestGraph(28, 0.5, 3)},
		{"empty", graph.New(10)},
		{"singleton", graph.New(1)},
		{"eu", eu},
	}
	for _, tc := range graphs {
		var stream [][]int
		tc.g.EachMaximalClique(2, func(c []int) bool {
			stream = append(stream, append([]int(nil), c...))
			return true
		})
		var sc scorer
		scores := make([]float64, len(stream))
		for i, q := range stream {
			scores[i] = m.scoreScratch(tc.g, q, true, &sc)
		}
		for _, limit := range []int{0, 1, 2, 7, len(stream), len(stream) + 10} {
			want := len(stream)
			if limit > 0 && limit < want {
				want = limit
			}
			for _, workers := range []int{1, 2, 3, 8, 64} {
				got, truncated := enumerateScored(context.Background(), tc.g, m, nil, limit, workers, nil)
				if len(got) != want {
					t.Fatalf("%s: limit=%d workers=%d: %d cliques, want %d", tc.name, limit, workers, len(got), want)
				}
				if wantTrunc := limit > 0 && len(stream) >= limit; truncated != wantTrunc {
					t.Fatalf("%s: limit=%d workers=%d: truncated=%v, want %v", tc.name, limit, workers, truncated, wantTrunc)
				}
				for i := range got {
					if !slices.Equal(got[i].nodes, stream[i]) || got[i].score != scores[i] {
						t.Fatalf("%s: limit=%d workers=%d: clique %d diverged from the serial stream", tc.name, limit, workers, i)
					}
				}
			}
		}
	}
}

// TestPipelineLimitBoundsEnumeration: a limit stop enumerates at most
// (workers+1)·limit cliques, however many productive seeds the graph has
// and however many cliques one seed holds. powerlaw-hubs is the corpus's
// densest family (406 maximal cliques over 200 seeds); in the dense
// random graph a single seed holds more cliques than any limit here.
func TestPipelineLimitBoundsEnumeration(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forceFanout(t)
	m, _ := pipelineTestSetup(t)
	fam, ok := corpus.ByName("powerlaw-hubs")
	if !ok {
		t.Fatal("corpus family powerlaw-hubs missing")
	}
	for _, tc := range []namedGraph{{fam.Name, fam.Gen(1)}, {"dense", randomTestGraph(28, 0.5, 3)}} {
		for _, limit := range []int{1, 3, 10} {
			for _, workers := range []int{1, 2, 4, 8} {
				f := newCountingFeaturizer()
				got, truncated := enumerateScored(context.Background(), tc.g, withFeaturizer(m, f), nil, limit, workers, nil)
				if len(got) != limit || !truncated {
					t.Fatalf("%s: limit=%d workers=%d: %d cliques (truncated=%v), want the first %d", tc.name, limit, workers, len(got), truncated, limit)
				}
				if n, bound := f.calls.Load(), int64((workers+1)*limit); n > bound {
					t.Errorf("%s: limit=%d workers=%d: enumerated %d cliques, want at most %d", tc.name, limit, workers, n, bound)
				}
			}
		}
	}
}

// TestRoundCancelledBeforeScoring: a cancelled request stops the
// enumerate-and-score loop at its next seed claim. With ctx cancelled up
// front, the loop scores no clique and the round accepts nothing and
// leaves the graph untouched.
func TestRoundCancelledBeforeScoring(t *testing.T) {
	m, g := pipelineTestSetup(t)
	f := newCountingFeaturizer()
	cm := withFeaturizer(m, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if scored, _ := enumerateScored(ctx, g, cm, nil, 0, 2, nil); len(scored) != 0 || f.calls.Load() != 0 {
		t.Fatalf("cancelled loop returned %d cliques after %d scoring calls, want none", len(scored), f.calls.Load())
	}
	var before, after bytes.Buffer
	if err := g.Write(&before); err != nil {
		t.Fatal(err)
	}
	rec := hypergraph.New(g.NumNodes())
	if got := BidirectionalSearch(g, cm, SearchOptions{Ctx: ctx, Theta: 0.5, R: 40, Seed: 1, StallDump: true}, rec); got != 0 {
		t.Fatalf("cancelled round accepted %d hyperedges, want 0", got)
	}
	if err := g.Write(&after); err != nil {
		t.Fatal(err)
	}
	if f.calls.Load() != 0 || rec.NumTotal() != 0 || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("cancelled round scored %d cliques, recorded %d hyperedges or changed the graph", f.calls.Load(), rec.NumTotal())
	}
}

// TestParallelRoundEngineMatchesSerial drives full reconstructions — the
// serial pipeline, the piece engine, and the sharded orchestrator — of eu
// and every corpus family at several parallelism settings, with the
// fan-out forced at the first clique so the helpers and the per-component
// search engage on every round however small, and requires the bytes of
// the cache-free oracle (uncachedReconstruct) at parallelism 1
// throughout. (The corpus package pins the serial bytes to its goldens
// and repeats the sweep at the default fan-out point.)
func TestParallelRoundEngineMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, eu := pipelineTestSetup(t)
	graphs := []namedGraph{{"eu", eu}}
	for _, f := range corpus.Families {
		graphs = append(graphs, namedGraph{f.Name, f.Gen(1)})
	}
	forceFanout(t)
	for _, tc := range graphs {
		name, g := tc.name, tc.g
		want := uncachedReconstruct(t, g, m, Options{Seed: 1, Parallelism: 1})
		for _, par := range []int{0, 1, 2, 8} {
			opts := Options{Seed: 1, Parallelism: par}
			res, err := ReconstructContext(context.Background(), g, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, res.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d serial pipeline diverged", name, par)
			}
			piece, err := ReconstructPiece(context.Background(), g.Clone(), m, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, piece.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d cached piece engine diverged", name, par)
			}
			sharded, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(renderHG(t, sharded.Hypergraph), want) {
				t.Errorf("%s: Parallelism=%d sharded orchestrator diverged", name, par)
			}
		}
	}
}
