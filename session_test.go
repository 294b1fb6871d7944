package marioh_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"marioh"
)

// trainedReconstructor builds a Reconstructor trained on a seeded dataset.
func trainedReconstructor(t *testing.T, opts ...marioh.Option) (*marioh.Reconstructor, *marioh.Graph) {
	t.Helper()
	ds := mustDataset(t, "hosts", 1)
	src, tgt := ds.Source.Reduced(), ds.Target.Reduced()
	r, err := marioh.New(append([]marioh.Option{marioh.WithSeed(1), marioh.WithEpochs(15)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(context.Background(), src.Project(), src); err != nil {
		t.Fatal(err)
	}
	return r, tgt.Project()
}

func renderResult(t *testing.T, res *marioh.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Hypergraph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionMatchesFullReconstruct: the public Session must reproduce a
// from-scratch Reconstruct of the mutated graph byte for byte, across
// several delta batches, and must not mutate the caller's graph.
func TestSessionMatchesFullReconstruct(t *testing.T) {
	r, g := trainedReconstructor(t)
	orig := g.Clone()
	sess, err := r.NewSession(context.Background(), marioh.SessionConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}

	shadow := g.Clone()
	batches := []marioh.Delta{
		{}, // initial full build
		{Ops: []marioh.DeltaOp{
			{Kind: marioh.DeltaAdd, U: 0, V: 1, W: 2},
			{Kind: marioh.DeltaAdd, U: 0, V: 2, W: 1},
		}},
		{Ops: []marioh.DeltaOp{
			{Kind: marioh.DeltaRemove, U: 0, V: 1},
			{Kind: marioh.DeltaSet, U: 3, V: 4, W: 3},
		}},
	}
	for bi, d := range batches {
		for _, op := range d.Ops {
			switch op.Kind {
			case marioh.DeltaAdd:
				shadow.AddWeight(op.U, op.V, op.W)
			case marioh.DeltaRemove:
				shadow.RemoveEdge(op.U, op.V)
			case marioh.DeltaSet:
				shadow.SetWeight(op.U, op.V, op.W)
			}
		}
		got, err := sess.Apply(context.Background(), d)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		want, err := r.Reconstruct(context.Background(), shadow)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderResult(t, got), renderResult(t, want)) {
			t.Fatalf("batch %d: session output diverges from full rebuild", bi)
		}
		if bi > 0 && got.DirtyComponents == 0 {
			t.Fatalf("batch %d: expected dirty components", bi)
		}
	}
	// The caller's graph must be untouched.
	var a, b bytes.Buffer
	if err := g.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := orig.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("NewSession/Apply mutated the caller's graph")
	}
	st := sess.Stats()
	if st.Applies != len(batches) || st.Components == 0 || st.Edges != sess.Graph().NumEdges() {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

// TestSessionRequiresModel: NewSession without a trained or attached
// model fails like Reconstruct does, for every session kind.
func TestSessionRequiresModel(t *testing.T) {
	r, err := marioh.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dopts := marioh.DurableOptions{Dir: t.TempDir()}
	for _, c := range []struct {
		name string
		cfg  marioh.SessionConfig
	}{
		{"in-memory", marioh.SessionConfig{Graph: marioh.NewGraph(4)}},
		{"nil graph", marioh.SessionConfig{}}, // the model is checked first
		{"durable", marioh.SessionConfig{Graph: marioh.NewGraph(4), Durable: &dopts}},
		{"resume", marioh.SessionConfig{Durable: &dopts, Resume: true}},
	} {
		if _, err := r.NewSession(ctx, c.cfg); err != marioh.ErrNoModel {
			t.Fatalf("%s: err = %v, want ErrNoModel", c.name, err)
		}
	}
}

// TestSessionProgressDirtyCount: progress events during Apply carry the
// batch's dirty-component count.
func TestSessionProgressDirtyCount(t *testing.T) {
	var dirty []int
	r, g := trainedReconstructor(t, marioh.WithProgress(func(p marioh.Progress) {
		dirty = append(dirty, p.Dirty)
	}))
	sess, err := r.NewSession(context.Background(), marioh.SessionConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Apply(context.Background(), marioh.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("no progress events during Apply")
	}
	for _, d := range dirty {
		if d != res.DirtyComponents {
			t.Fatalf("event Dirty %d, want %d", d, res.DirtyComponents)
		}
	}
}

// TestSessionDeltaTextRoundTrip: the public delta reader/writer round-trip
// and feed Apply.
func TestSessionDeltaTextRoundTrip(t *testing.T) {
	ops, err := marioh.ReadDeltas(strings.NewReader("+ 1 2 3\n% comment\n- 4 5\n= 6 7 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[0].Kind != marioh.DeltaAdd || ops[1].Kind != marioh.DeltaRemove || ops[2].Kind != marioh.DeltaSet {
		t.Fatalf("parsed %v", ops)
	}
	var buf bytes.Buffer
	if err := marioh.WriteDeltas(&buf, ops); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "+ 1 2 3\n- 4 5\n= 6 7 0\n" {
		t.Fatalf("serialized %q", got)
	}
}
