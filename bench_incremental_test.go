package marioh_test

import (
	"context"
	"math"
	"testing"
	"time"

	"marioh"
)

// The incremental-apply benchmark measures the tentpole claim of the
// session engine: when a delta batch touches a small fraction of the
// graph's components, Session.Apply — which recomputes only the touched
// components and merges the rest from its cache — beats a from-scratch
// reconstruction of the mutated graph by a wide margin, while producing
// byte-identical output (asserted by the session tests and `make
// incr-check`). Run with
//
//	go test -run '^$' -bench BenchmarkIncrementalApply -benchmem .

// sessionDirtyBatch builds a delta batch that bumps the weight of
// `count` edges spread across the bench graph, touching about `count`
// distinct communities (~1% of components at count 25).
func sessionDirtyBatch(g *marioh.Graph, round, count int) marioh.Delta {
	edges := g.Edges()
	if len(edges) == 0 {
		return marioh.Delta{}
	}
	sep := len(edges) / count
	if sep < 1 {
		sep = 1
	}
	var ops []marioh.DeltaOp
	for j := 0; j < count; j++ {
		e := edges[(round*7+j*sep)%len(edges)]
		ops = append(ops, marioh.DeltaOp{Kind: marioh.DeltaAdd, U: e.U, V: e.V, W: 1})
	}
	return marioh.Delta{Ops: ops}
}

// BenchmarkIncrementalApply compares applying a ~1%-dirty delta batch
// through a warm session against a full re-reconstruction of the same
// mutated graph (the only pre-session way to serve it). The session's
// per-iteration work is proportional to the dirty components, not the
// graph.
func BenchmarkIncrementalApply(b *testing.B) {
	st := shardBenchSetup(b)
	r, err := marioh.New(marioh.WithSeed(9), marioh.WithModel(st.model))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("session", func(b *testing.B) {
		sess, err := r.NewSession(context.Background(), marioh.SessionConfig{Graph: st.g})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Apply(context.Background(), marioh.Delta{}); err != nil {
			b.Fatal(err) // warm: initial full build outside the timer
		}
		dirtyTotal := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Apply(context.Background(), sessionDirtyBatch(st.g, i, 25))
			if err != nil {
				b.Fatal(err)
			}
			dirtyTotal += res.DirtyComponents
		}
		b.StopTimer()
		if b.N > 0 {
			b.ReportMetric(float64(dirtyTotal)/float64(b.N), "dirty/op")
		}
	})

	b.Run("full-rebuild", func(b *testing.B) {
		// The same mutated workload, served the pre-session way: mutate a
		// working graph and reconstruct it from scratch.
		work := st.g.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, op := range sessionDirtyBatch(work, i, 25).Ops {
				work.AddWeight(op.U, op.V, op.W)
			}
			if _, err := r.Reconstruct(context.Background(), work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIncrementalSessionSpeedup is the acceptance floor behind the
// benchmark: with ~1% of components dirty, a session apply must be at
// least 5x faster than a full re-reconstruction of the mutated graph.
// On a quiet 2-CPU machine the margin on this fixture is about 7x. One
// timed sample per side would let a burst of load on either side decide
// the ratio, so the test runs three interleaved rounds, each applying a
// fresh batch to both the session and the rebuild graph and checking
// their bytes, and compares the fastest apply with the fastest rebuild.
func TestIncrementalSessionSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	st := shardBenchSetup(t)
	r, err := marioh.New(marioh.WithSeed(9), marioh.WithModel(st.model))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := r.NewSession(context.Background(), marioh.SessionConfig{Graph: st.g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Apply(context.Background(), marioh.Delta{}); err != nil {
		t.Fatal(err)
	}
	work := st.g.Clone()
	sessionTime, fullTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 1; round <= 3; round++ {
		batch := sessionDirtyBatch(st.g, round, 25)
		for _, op := range batch.Ops {
			work.AddWeight(op.U, op.V, op.W)
		}

		t0 := time.Now()
		res, err := sess.Apply(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		sessionTime = min(sessionTime, time.Since(t0))

		t0 = time.Now()
		full, err := r.Reconstruct(context.Background(), work)
		if err != nil {
			t.Fatal(err)
		}
		fullTime = min(fullTime, time.Since(t0))

		if dirtyFrac := float64(res.DirtyComponents) / float64(sess.Stats().Components); dirtyFrac > 0.10 {
			t.Fatalf("round %d: batch dirtied %.1f%% of components; the fixture should stay under 10%%", round, 100*dirtyFrac)
		}
		if !res.Hypergraph.Equal(full.Hypergraph) {
			t.Fatalf("round %d: session apply and full rebuild disagree", round)
		}
	}
	if speedup := float64(fullTime) / float64(sessionTime); speedup < 5 {
		t.Fatalf("fastest session apply %.3fs vs fastest full rebuild %.3fs: %.1fx speedup, want >= 5x",
			sessionTime.Seconds(), fullTime.Seconds(), speedup)
	}
}
