package marioh_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"marioh"
	"marioh/internal/corpus"
)

// budgetPath is one way to reconstruct a graph through the public API.
type budgetPath struct {
	name string
	run  func(ctx context.Context, r *marioh.Reconstructor, g *marioh.Graph) (*marioh.Result, error)
}

func reconstructPath(ctx context.Context, r *marioh.Reconstructor, g *marioh.Graph) (*marioh.Result, error) {
	return r.Reconstruct(ctx, g)
}

func sessionPath(ctx context.Context, r *marioh.Reconstructor, g *marioh.Graph) (*marioh.Result, error) {
	s, err := r.NewSession(ctx, marioh.SessionConfig{Graph: g})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Apply(ctx, marioh.Delta{})
}

// TestParallelCliqueBudgetAcrossPaths: every path gives the same answer
// for a given clique budget. M is the smallest budget under which the
// default path at parallelism 1 reconstructs the graph, found by
// bisection (core's TestParallelCliqueBudgetMatchesOracle pins it to the
// largest maximal-clique count of any component in any round). At M,
// Reconstruct and a Session's first Apply return the unlimited run's
// bytes; at M−1 each fails with ErrCliqueBudget; both at parallelism 1,
// 2 and 8, over eu and every corpus family. A budget of 0 means none, so
// M−1 is skipped where M is 1.
func TestParallelCliqueBudgetAcrossPaths(t *testing.T) {
	ctx := context.Background()
	train := func(name string, epochs int) *marioh.Model {
		ds := mustDataset(t, name, 1)
		src := ds.Source.Reduced()
		r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(epochs))
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Train(ctx, src.Project(), src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	type input struct {
		name string
		g    *marioh.Graph
		m    *marioh.Model
	}
	inputs := []input{{"eu", mustDataset(t, "eu", 1).Source.Reduced().Project(), train("eu", 10)}}
	hosts := train("hosts", 15)
	for _, f := range corpus.Families {
		inputs = append(inputs, input{f.Name, f.Gen(1), hosts})
	}
	paths := []budgetPath{{"Reconstruct", reconstructPath}, {"Session", sessionPath}}

	for _, in := range inputs {
		run := func(p budgetPath, par, budget int) ([]byte, error) {
			t.Helper()
			r, err := marioh.New(marioh.WithModel(in.m), marioh.WithSeed(1),
				marioh.WithParallelism(par), marioh.WithMaxCliqueLimit(budget))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.run(ctx, r, in.g)
			if err != nil {
				return nil, err
			}
			return renderResult(t, res), nil
		}
		want, err := run(paths[0], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		passes := func(budget int) bool {
			_, err := run(paths[0], 1, budget)
			if err != nil && !errors.Is(err, marioh.ErrCliqueBudget) {
				t.Fatalf("%s: budget %d: %v", in.name, budget, err)
			}
			return err == nil
		}
		hi := 1
		for !passes(hi) {
			hi *= 2
		}
		lo := hi / 2 // fails, or is 0: no budget
		for hi-lo > 1 {
			if mid := (lo + hi) / 2; passes(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		most := hi
		t.Logf("%s: M = %d", in.name, most)

		for _, p := range paths {
			for _, par := range []int{1, 2, 8} {
				got, err := run(p, par, most)
				if err != nil {
					t.Errorf("%s: %s at parallelism %d, budget %d (M): %v", in.name, p.name, par, most, err)
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s: %s at parallelism %d, budget %d (M): bytes differ from the unlimited run", in.name, p.name, par, most)
				}
				if most == 1 {
					continue
				}
				if _, err := run(p, par, most-1); !errors.Is(err, marioh.ErrCliqueBudget) {
					t.Errorf("%s: %s at parallelism %d, budget %d (M−1): err = %v, want ErrCliqueBudget", in.name, p.name, par, most-1, err)
				}
			}
		}
	}
}

// TestReconstructBatchCliqueBudget: in a serial batch whose second target
// has a component past the clique budget, the batch fails with
// ErrCliqueBudget. The first target's result is complete, the second's
// holds what ran before the budget stopped it (crime's filtering), and
// the third never started.
func TestReconstructBatchCliqueBudget(t *testing.T) {
	ctx := context.Background()
	ds := mustDataset(t, "crime", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced().Project()
	r, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(10),
		marioh.WithParallelism(1), marioh.WithMaxCliqueLimit(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(ctx, src.Project(), src); err != nil {
		t.Fatal(err)
	}
	// hostile is crime's target plus the Moon–Moser graph on 24 nodes: 8
	// independent triples, every other pair joined, one component with
	// 3^8 = 6,561 maximal cliques that filtering leaves whole.
	hostile := tgt.Clone()
	n := tgt.NumNodes()
	hostile.EnsureNodes(n + 24)
	for u := 0; u < 24; u++ {
		for v := u + 1; v < 24; v++ {
			if u/3 != v/3 {
				hostile.AddWeight(n+u, n+v, 1)
			}
		}
	}
	want, err := r.Reconstruct(ctx, tgt)
	if err != nil {
		t.Fatal(err)
	}

	results, err := r.ReconstructBatch(ctx, []*marioh.Graph{tgt, hostile, tgt})
	if !errors.Is(err, marioh.ErrCliqueBudget) {
		t.Fatalf("err = %v, want ErrCliqueBudget", err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0] == nil || !bytes.Equal(renderResult(t, results[0]), renderResult(t, want)) {
		t.Fatal("the first target's result is not the complete reconstruction")
	}
	partial := results[1]
	if partial == nil {
		t.Fatal("the failed target's partial result is missing")
	}
	if partial.FilteredSize2 != want.FilteredSize2 || partial.Hypergraph.NumUnique() == 0 {
		t.Fatalf("the failed target's partial result holds %d filtered occurrences and %d hyperedges, want crime's %d filtered",
			partial.FilteredSize2, partial.Hypergraph.NumUnique(), want.FilteredSize2)
	}
	if partial.Hypergraph.Project().NumEdges() >= hostile.NumEdges() {
		t.Fatal("the failed target's partial result covers every edge")
	}
	if results[2] != nil {
		t.Fatal("the third target ran after the batch failed")
	}
}
