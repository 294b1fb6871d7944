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
