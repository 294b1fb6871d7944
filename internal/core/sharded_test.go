package core

import (
	"bytes"
	"context"
	"testing"

	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/hypergraph"
)

// disjointUnion builds one graph holding every input graph as its own
// block of node ids.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.NumNodes()
	}
	u := graph.New(n)
	off := 0
	for _, g := range gs {
		for _, e := range g.Edges() {
			u.AddWeight(off+e.U, off+e.V, e.W)
		}
		off += g.NumNodes()
	}
	return u
}

// renderHG serializes a hypergraph in its canonical text form.
func renderHG(t *testing.T, h *hypergraph.Hypergraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiComponentTarget builds a target graph with many components from
// several dataset analogs, plus a model trained the usual way.
func multiComponentTarget(t *testing.T) (*graph.Graph, *Model) {
	t.Helper()
	src := datasets.MustByName("crime", 1).Source.Reduced()
	m := Train(src.Project(), src, TrainOptions{Seed: 1, Epochs: 15})
	var parts []*graph.Graph
	for _, name := range []string{"crime", "hosts", "pschool"} {
		parts = append(parts, datasets.MustByName(name, 1).Target.Reduced().Project())
	}
	return disjointUnion(parts...), m
}

// TestShardedMatchesSerialMultiComponent is the acceptance criterion:
// sharded reconstruction must be byte-identical to the serial pipeline for
// every shard count.
func TestShardedMatchesSerialMultiComponent(t *testing.T) {
	g, m := multiComponentTarget(t)
	opts := Options{Seed: 3}
	serial, err := ReconstructContext(context.Background(), g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderHG(t, serial.Hypergraph)
	if serial.Hypergraph.NumUnique() == 0 {
		t.Fatal("empty serial reconstruction")
	}
	for _, shards := range []int{1, 2, 4, 16} {
		res, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := renderHG(t, res.Hypergraph); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: output diverges from serial pipeline (%d vs %d unique)",
				shards, res.Hypergraph.NumUnique(), serial.Hypergraph.NumUnique())
		}
		if res.FilteredSize2 != serial.FilteredSize2 {
			t.Fatalf("shards=%d: FilteredSize2 %d != serial %d", shards, res.FilteredSize2, serial.FilteredSize2)
		}
		if shards > 1 && res.Shards < 2 {
			t.Fatalf("shards=%d: run used %d shards, expected a real partition", shards, res.Shards)
		}
	}
}

// bridgeChain builds a connected hypergraph of k triangle communities
// chained by size-2 bridges, whose projection the partitioner must split
// along the bridges.
func bridgeChain(k int) *hypergraph.Hypergraph {
	h := hypergraph.New(3 * k)
	for i := 0; i < k; i++ {
		b := 3 * i
		h.Add([]int{b, b + 1, b + 2})
		h.Add([]int{b, b + 2})
		if i > 0 {
			h.Add([]int{b - 1, b})
		}
	}
	return h
}

// TestShardedBridgeSplitMatchesSerial cuts the one-component chain along
// its bridges, which share no neighbour, and checks the output still
// matches the serial pipeline byte for byte.
func TestShardedBridgeSplitMatchesSerial(t *testing.T) {
	h := bridgeChain(10)
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 2, Epochs: 15})
	opts := Options{Seed: 2}
	serial, err := ReconstructContext(context.Background(), g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderHG(t, serial.Hypergraph)
	for _, shards := range []int{2, 4, 16} {
		res, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Shards < 2 {
			t.Fatalf("shards=%d: expected the chain to split, got %d shards", shards, res.Shards)
		}
		if got := renderHG(t, res.Hypergraph); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: bridge-split output diverges from serial pipeline", shards)
		}
	}
}

// TestShardedCutsTriangleFreeCycle: two triangles joined by the edges 2–3
// and 1–4 form one 2-edge-connected component, so no bridge splits it,
// but neither joining edge has a common neighbour. The partitioner cuts
// both, and the two pieces still reproduce the serial bytes.
func TestShardedCutsTriangleFreeCycle(t *testing.T) {
	h := hypergraph.New(6)
	h.Add([]int{0, 1, 2})
	h.Add([]int{3, 4, 5})
	h.Add([]int{0, 1})
	h.Add([]int{2, 3})
	h.Add([]int{1, 4})
	g := h.Project()
	m := Train(g, h, TrainOptions{Seed: 2, Epochs: 15})
	opts := Options{Seed: 2}
	serial, err := ReconstructContext(context.Background(), g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 2 {
		t.Fatalf("run used %d shards, want 2", res.Shards)
	}
	if got, want := renderHG(t, res.Hypergraph), renderHG(t, serial.Hypergraph); !bytes.Equal(got, want) {
		t.Fatalf("sharded output diverges from serial pipeline:\n%s\nvs\n%s", got, want)
	}
}

// TestShardedVariantsMatchSerial covers the ablations: without filtering
// the partitioner must fall back to component granularity and still match;
// without sub-clique search Phase 2 is skipped identically everywhere.
func TestShardedVariantsMatchSerial(t *testing.T) {
	g, m := multiComponentTarget(t)
	for _, opts := range []Options{
		{Seed: 5, DisableFiltering: true},
		{Seed: 5, DisableBidirectional: true},
		{Seed: 5, Alpha: -1, MaxRounds: 6}, // frozen θ exercises the stall dump
	} {
		serial, err := ReconstructContext(context.Background(), g, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := renderHG(t, serial.Hypergraph)
		for _, shards := range []int{1, 4, 16} {
			res, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: shards})
			if err != nil {
				t.Fatalf("%+v shards=%d: %v", opts, shards, err)
			}
			if got := renderHG(t, res.Hypergraph); !bytes.Equal(got, want) {
				t.Fatalf("%+v shards=%d: output diverges from serial pipeline", opts, shards)
			}
		}
	}
}

// TestShardedProgressAndCancellation: per-shard progress events carry the
// shard index, and cancellation aborts the fan-out with ctx.Err().
func TestShardedProgressAndCancellation(t *testing.T) {
	g, m := multiComponentTarget(t)
	seen := map[int]bool{}
	opts := Options{Seed: 1, Progress: func(p Progress) { seen[p.Shard] = true }}
	res, err := ReconstructSharded(context.Background(), g, m, opts, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards < 2 {
		t.Fatalf("expected a multi-shard run, got %d", res.Shards)
	}
	if len(seen) < 2 {
		t.Fatalf("progress events stamped %d distinct shards, want ≥ 2 (%v)", len(seen), seen)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReconstructSharded(dead, g, m, Options{Seed: 1}, ShardOptions{Shards: 4}); err == nil {
		t.Fatal("cancelled sharded run must return an error")
	}
}
