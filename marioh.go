// Package marioh is the public API of this reproduction of "MARIOH:
// Multiplicity-Aware Hypergraph Reconstruction" (Lee, Lee & Shin, ICDE
// 2025). It reconstructs a hypergraph — a multiset of node sets of size
// ≥ 2 — from its weighted clique-expansion projection, using the edge
// multiplicities ω(u, v) that record how many hyperedges contain each node
// pair.
//
// The entry point is the Reconstructor service: configure it once with
// functional options, train it (or attach a saved model), then reconstruct
// any number of targets with context cancellation and progress reporting.
// The flow mirrors the paper's Problem 1 (supervised hypergraph
// reconstruction):
//
//	src, tgt := ...                            // same-domain hypergraphs
//	r, _ := marioh.New(marioh.WithSeed(1))     // zero options = the paper's setup
//	r.Train(ctx, src.Project(), src)
//	res, err := r.Reconstruct(ctx, tgt.Project())
//	if err == nil {
//		fmt.Println(marioh.Jaccard(tgt, res.Hypergraph))
//	}
//
// Batch workloads fan out with r.ReconstructBatch(ctx, targets) under
// marioh.WithParallelism(n), and r.Pipeline(ctx, "crime") runs the full
// generate→train→reconstruct→evaluate protocol on a named dataset.
// Algorithm variants and featurizers are resolved by name: see
// WithVariant, WithFeaturizer and RegisterFeaturizer.
//
// The exported names are aliases of the implementation packages under
// internal/, so the full method sets of Hypergraph, Graph and Model are
// available through this package.
package marioh

import (
	"fmt"
	"io"

	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/downstream"
	"marioh/internal/eval"
	"marioh/internal/features"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
	"marioh/internal/service"
)

// Hypergraph is a multiset of hyperedges with per-hyperedge multiplicity.
type Hypergraph = hypergraph.Hypergraph

// Graph is a weighted projected graph; weights are edge multiplicities.
type Graph = graph.Graph

// Model is a trained multiplicity-aware clique classifier.
type Model = core.Model

// Result is a reconstruction with its per-step timing breakdown.
type Result = core.Result

// Dataset is a generated benchmark dataset with source/target halves.
type Dataset = datasets.Dataset

// NewHypergraph returns an empty hypergraph over n nodes (the universe
// grows automatically as hyperedges are added).
func NewHypergraph(n int) *Hypergraph { return hypergraph.New(n) }

// NewGraph returns an empty weighted graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Jaccard is the reconstruction accuracy over unique hyperedges.
func Jaccard(truth, rec *Hypergraph) float64 { return eval.Jaccard(truth, rec) }

// MultiJaccard is the multiplicity-aware reconstruction accuracy.
func MultiJaccard(truth, rec *Hypergraph) float64 { return eval.MultiJaccard(truth, rec) }

// GenerateDataset builds one of the named synthetic dataset analogs (see
// DatasetNames) with the given seed.
func GenerateDataset(name string, seed int64) (*Dataset, error) {
	return datasets.ByName(name, seed)
}

// DatasetNames lists the available dataset analogs.
func DatasetNames() []string { return datasets.Names() }

// LoadModel restores a classifier saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// SaveModel writes m as JSON, the symmetric counterpart of LoadModel used
// by model registries; it is equivalent to m.Save(w).
func SaveModel(w io.Writer, m *Model) error {
	if m == nil {
		return fmt.Errorf("marioh: cannot save a nil model")
	}
	return m.Save(w)
}

// Featurizer turns cliques into classifier feature vectors.
type Featurizer = features.Featurizer

// FeaturizerByName resolves a featurizer: "marioh" (the multiplicity-aware
// default), "marioh-nomhh", "shyre-count", "shyre-motif", or any custom
// featurizer added via RegisterFeaturizer.
func FeaturizerByName(name string) (Featurizer, bool) { return service.FeaturizerByName(name) }

// ReadHypergraph parses the line-oriented hyperedge format ("u v w ..."
// per hyperedge, optional "# mult" suffix).
func ReadHypergraph(r io.Reader) (*Hypergraph, error) { return hypergraph.Read(r) }

// ReadGraph parses a weighted edge list ("u v w" per line).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// LinkPredictionAUC runs the paper's link-prediction protocol on a
// projected graph, optionally enriched with hyperedge features (pass a nil
// hypergraph for the graph-only setting).
func LinkPredictionAUC(g *Graph, h *Hypergraph, seed int64) float64 {
	return downstream.LinkPredictionAUC(g, h, downstream.LinkPredOptions{Seed: seed})
}

// ClusteringNMI spectrally clusters the hypergraph (or the graph when h is
// nil) and scores the clusters against ground-truth labels.
func ClusteringNMI(g *Graph, h *Hypergraph, labels []int, seed int64) float64 {
	return downstream.ClusteringNMI(g, h, labels, seed)
}
