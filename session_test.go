package marioh_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
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
// batch's dirty-component count, and each its component's index among
// the dirty ones, so the first Apply over hosts' many components reports
// every index from 0 to the count.
func TestSessionProgressDirtyCount(t *testing.T) {
	var dirty []int
	targets := map[int]bool{}
	r, g := trainedReconstructor(t, marioh.WithProgress(func(p marioh.Progress) {
		dirty = append(dirty, p.Dirty)
		targets[p.Target] = true
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
	if res.DirtyComponents < 2 {
		t.Fatalf("Apply dirtied %d components, want at least 2", res.DirtyComponents)
	}
	for i := 0; i < res.DirtyComponents; i++ {
		if !targets[i] {
			t.Fatalf("no event carries dirty index %d in Target (saw %v)", i, targets)
		}
	}
	if len(targets) != res.DirtyComponents {
		t.Fatalf("events carry %d distinct Targets, want %d: %v", len(targets), res.DirtyComponents, targets)
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

// eachSessionKind runs f as a subtest on a fresh in-memory session and on
// a fresh durable one, both over g.
func eachSessionKind(t *testing.T, r *marioh.Reconstructor, g *marioh.Graph, f func(t *testing.T, sess *marioh.Session)) {
	t.Helper()
	for _, durable := range []bool{false, true} {
		name := "in-memory"
		cfg := marioh.SessionConfig{Graph: g}
		if durable {
			name = "durable"
			cfg.Durable = &marioh.DurableOptions{Dir: filepath.Join(t.TempDir(), "sess"), NoFsync: true}
		}
		t.Run(name, func(t *testing.T) {
			sess, err := r.NewSession(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, sess)
		})
	}
}

// TestSessionClosedRefusesApplyAndSync: after Close, both kinds of session
// refuse Apply and Sync with ErrSessionClosed and count nothing, a second
// Close returns nil, and Stats still reports the final state.
func TestSessionClosedRefusesApplyAndSync(t *testing.T) {
	r, g := trainedReconstructor(t)
	ctx := context.Background()
	eachSessionKind(t, r, g, func(t *testing.T, sess *marioh.Session) {
		if _, err := sess.Apply(ctx, marioh.Delta{}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("second Close = %v, want nil", err)
		}
		d := marioh.Delta{Ops: []marioh.DeltaOp{{Kind: marioh.DeltaAdd, U: 0, V: 1, W: 1}}}
		if res, err := sess.Apply(ctx, d); !errors.Is(err, marioh.ErrSessionClosed) || res != nil {
			t.Fatalf("Apply after Close = (%v, %v), want (nil, ErrSessionClosed)", res, err)
		}
		if err := sess.Sync(); !errors.Is(err, marioh.ErrSessionClosed) {
			t.Fatalf("Sync after Close = %v, want ErrSessionClosed", err)
		}
		if st := sess.Stats(); st.Applies != 1 {
			t.Fatalf("Applies after a refused Apply = %d, want 1", st.Applies)
		}
	})
}

// TestSessionConcurrentReads: Stats and Graph race an in-flight Apply on
// both kinds of session; under -race (make race) this proves the one
// session mutex covers the engine and the log.
func TestSessionConcurrentReads(t *testing.T) {
	r, g := trainedReconstructor(t)
	eachSessionKind(t, r, g, func(t *testing.T, sess *marioh.Session) {
		defer sess.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				sess.Stats()
				sess.Graph()
			}
		}()
		if _, err := sess.Apply(context.Background(), marioh.Delta{}); err != nil {
			t.Fatal(err)
		}
		<-done
	})
}
