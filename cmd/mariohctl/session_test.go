package main

import (
	"reflect"
	"testing"

	"marioh"
)

func TestSplitBatches(t *testing.T) {
	ops := make([]marioh.DeltaOp, 7)
	for i := range ops {
		ops[i] = marioh.DeltaOp{Kind: marioh.DeltaAdd, U: i, V: i + 1, W: 1}
	}
	if got := splitBatches(ops, 0); len(got) != 1 || len(got[0]) != 7 {
		t.Fatalf("size 0: %d batches", len(got))
	}
	got := splitBatches(ops, 3)
	if len(got) != 3 || len(got[0]) != 3 || len(got[1]) != 3 || len(got[2]) != 1 {
		t.Fatalf("size 3: lens %d/%d/%d in %d batches", len(got[0]), len(got[1]), len(got[2]), len(got))
	}
	var flat []marioh.DeltaOp
	for _, b := range got {
		flat = append(flat, b...)
	}
	if !reflect.DeepEqual(flat, ops) {
		t.Fatal("batching reordered ops")
	}
	// An empty stream still yields the one batch that triggers the
	// session's initial build.
	if got := splitBatches(nil, 10); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty stream: %v", got)
	}
}

func TestApplyOpTo(t *testing.T) {
	g := marioh.NewGraph(2)
	applyOpTo(g, marioh.DeltaOp{Kind: marioh.DeltaAdd, U: 0, V: 5, W: 2}) // grows the node set
	if g.NumNodes() != 6 || g.Weight(0, 5) != 2 {
		t.Fatalf("add: nodes %d weight %d", g.NumNodes(), g.Weight(0, 5))
	}
	applyOpTo(g, marioh.DeltaOp{Kind: marioh.DeltaSet, U: 0, V: 5, W: 7})
	if g.Weight(0, 5) != 7 {
		t.Fatalf("set: weight %d", g.Weight(0, 5))
	}
	applyOpTo(g, marioh.DeltaOp{Kind: marioh.DeltaRemove, U: 0, V: 5})
	if g.NumEdges() != 0 {
		t.Fatalf("remove left %d edges", g.NumEdges())
	}
}
