package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"

	"marioh"
)

// trainSeed fixes the classifier's training run, so set-up does the same
// work under every workload seed.
const trainSeed = 1

// scale picks the datasets a run uses: the paper analogs for real runs,
// tiny ones for the smoke tests.
type scale struct {
	eu, serve string
	epochs    int // 0 = the paper's 60
}

var (
	fullScale  = scale{eu: "eu", serve: "hosts"}
	smokeScale = scale{eu: "crime", serve: "crime", epochs: 3}
)

// input is one generated dataset: the training pair and k relabeled
// copies of the target, whose projections are what the program
// reconstructs.
type input struct {
	src      *marioh.Hypergraph   // reduced source half: the supervision
	srcGraph *marioh.Graph        // its projection
	truths   []*marioh.Hypergraph // reduced target half, node ids permuted
	targets  []*marioh.Graph      // the truths' projections
}

// maxTargets bounds the relabeled copies per seed, so the permutations of
// different seeds never coincide.
const maxTargets = 16

// makeInput generates the named analog with generation seed 1 — the
// graphs whose sizes README.md quotes — and k copies of its target with
// node ids permuted by seed-derived permutations. A permutation changes
// the bytes the program sees (component keys, sampling streams,
// tie-breaks) without changing the graph's shape; cycling over several
// copies averages what is left of the difference, so workload seeds
// differ in inputs but not in cost.
func makeInput(name string, seed int64, k int) (*input, error) {
	ds, err := marioh.GenerateDataset(name, 1)
	if err != nil {
		return nil, err
	}
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	in := &input{src: src, srcGraph: src.Project()}
	for j := 0; j < k; j++ {
		p := rand.New(rand.NewSource(seed*maxTargets + int64(j))).Perm(tgt.NumNodes())
		truth := marioh.NewHypergraph(tgt.NumNodes())
		tgt.Each(func(nodes []int, mult int) {
			q := make([]int, len(nodes))
			for i, u := range nodes {
				q[i] = p[u]
			}
			sort.Ints(q)
			truth.AddMult(q, mult)
		})
		in.truths = append(in.truths, truth)
		in.targets = append(in.targets, truth.Project())
	}
	return in, nil
}

// newReconstructor builds a Reconstructor with the run's scale applied.
func (r *runner) newReconstructor(opts ...marioh.Option) (*marioh.Reconstructor, error) {
	if r.sc.epochs > 0 {
		opts = append(opts, marioh.WithEpochs(r.sc.epochs))
	}
	return marioh.New(opts...)
}

// trainModel trains the classifier on in's source half through the public
// API — the set-up every library workload times.
func (r *runner) trainModel(in *input) (*marioh.Model, error) {
	rec, err := r.newReconstructor(marioh.WithSeed(trainSeed))
	if err != nil {
		return nil, err
	}
	return rec.Train(context.Background(), in.srcGraph, in.src)
}

// reference reconstructs g with the serial, unsharded library pipeline —
// the bytes every workload output must equal.
func reference(m *marioh.Model, g *marioh.Graph, seed int64) ([]byte, *marioh.Hypergraph, error) {
	rec, err := marioh.New(marioh.WithModel(m), marioh.WithSeed(seed), marioh.WithParallelism(1))
	if err != nil {
		return nil, nil, err
	}
	res, err := rec.Reconstruct(context.Background(), g)
	if err != nil {
		return nil, nil, fmt.Errorf("serial reference: %w", err)
	}
	return encode(res.Hypergraph), res.Hypergraph, nil
}

// encode serializes a hypergraph in the library's text format.
func encode(h *marioh.Hypergraph) []byte {
	var b bytes.Buffer
	_ = h.Write(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// modelBytes serializes a model; two models are the same model when these
// bytes are equal.
func modelBytes(m *marioh.Model) ([]byte, error) {
	var b bytes.Buffer
	if err := marioh.SaveModel(&b, m); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
