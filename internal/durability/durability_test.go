package durability

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"marioh/internal/core"
	"marioh/internal/datasets"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

// The fixture mirrors the incremental engine tests: a model trained the
// usual way plus a multi-component target graph (disjoint union of three
// dataset analogs). Training is shared across tests; every test gets its
// own clone of the target.
var (
	fixOnce   sync.Once
	fixModel  *core.Model
	fixTarget *graph.Graph
	fixBound  int // node-id bound of the first block, keeps deltas local
)

func fixture(t *testing.T) (*graph.Graph, *core.Model) {
	t.Helper()
	fixOnce.Do(func() {
		src := datasets.MustByName("crime", 1).Source.Reduced()
		fixModel = core.Train(src.Project(), src, core.TrainOptions{Seed: 1, Epochs: 15})
		n := 0
		var parts []*graph.Graph
		for _, name := range []string{"crime", "hosts", "pschool"} {
			parts = append(parts, datasets.MustByName(name, 1).Target.Reduced().Project())
		}
		for _, p := range parts {
			n += p.NumNodes()
		}
		fixTarget = graph.New(n)
		off := 0
		for _, p := range parts {
			for _, e := range p.Edges() {
				fixTarget.AddWeight(off+e.U, off+e.V, e.W)
			}
			off += p.NumNodes()
		}
		fixBound = parts[0].NumNodes()
	})
	return fixTarget.Clone(), fixModel
}

func applyToShadow(g *graph.Graph, op graph.DeltaOp) {
	top := op.U
	if op.V > top {
		top = op.V
	}
	g.EnsureNodes(top + 1)
	switch op.Kind {
	case graph.DeltaAdd:
		g.AddWeight(op.U, op.V, op.W)
	case graph.DeltaRemove:
		g.RemoveEdge(op.U, op.V)
	case graph.DeltaSet:
		g.SetWeight(op.U, op.V, op.W)
	}
}

// deltaWalk is a reproducible delta stream against the fixture: batches
// confined to the first dataset block (so recovery recomputation stays
// cheap) plus the shadow graph after each prefix — shadows[k] is the
// graph with batches[0..k-1] applied.
type deltaWalk struct {
	batches [][]graph.DeltaOp
	shadows []*graph.Graph
}

func makeWalk(g *graph.Graph, n, batchSize int) *deltaWalk {
	w := &deltaWalk{shadows: []*graph.Graph{g.Clone()}}
	rng := rand.New(rand.NewSource(7))
	shadow := g.Clone()
	for i := 0; i < n; i++ {
		var edges []graph.Edge
		for _, e := range shadow.Edges() {
			if e.V < fixBound {
				edges = append(edges, e)
			}
		}
		var ops []graph.DeltaOp
		for len(ops) < batchSize {
			switch {
			case len(edges) > 0 && rng.Intn(3) != 0:
				e := edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: 1})
				} else {
					ops = append(ops, graph.DeltaOp{Kind: graph.DeltaRemove, U: e.U, V: e.V})
				}
			default:
				u, v := rng.Intn(fixBound), rng.Intn(fixBound)
				if u == v {
					continue
				}
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaSet, U: u, V: v, W: 1 + rng.Intn(3)})
			}
		}
		for _, op := range ops {
			applyToShadow(shadow, op)
		}
		w.batches = append(w.batches, ops)
		w.shadows = append(w.shadows, shadow.Clone())
	}
	return w
}

// golden renders the from-scratch serial reconstruction of g — the byte
// string every recovered session must reproduce.
func golden(t *testing.T, g *graph.Graph, m *core.Model, opts core.Options) []byte {
	t.Helper()
	res, err := core.ReconstructContext(context.Background(), g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return render(t, res)
}

func render(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Hypergraph.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyDir copies a session directory into a fresh temp dir, the
// crash-simulation primitive: the original keeps running, the copy is
// the "disk state at the moment of the crash".
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func forceRotate(t *testing.T, s *Session) {
	t.Helper()
	s.mu.Lock()
	err := s.rotateLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// resumeAndCheck recovers dir and asserts the recovered session's next
// Apply is byte-identical to an uninterrupted serial rebuild at the
// expected sequence, with the expected recovery outcome.
func resumeAndCheck(t *testing.T, dir string, m *core.Model, opts core.Options, o Options,
	wantApplies int, wantOutcome string, wantGolden []byte) *Session {
	t.Helper()
	s, err := Resume(dir, m, opts, 0, o)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if got := s.Applies(); got != wantApplies {
		t.Fatalf("recovered applies = %d, want %d", got, wantApplies)
	}
	if got := s.Stats().Outcome; got != wantOutcome {
		t.Fatalf("recovery outcome = %q, want %q", got, wantOutcome)
	}
	res, err := s.Apply(context.Background(), nil)
	if err != nil {
		t.Fatalf("post-recovery Apply: %v", err)
	}
	if !bytes.Equal(render(t, res), wantGolden) {
		t.Fatalf("recovered output diverges from serial rebuild (%d unique)", res.Hypergraph.NumUnique())
	}
	return s
}

// TestDurabilityRoundTrip: create → apply → close → resume must restore
// the engine exactly — zero replay, zero recomputation, byte-identical
// output — with every batch verified against a from-scratch rebuild
// along the way. Runs with fsync on (the default), exercising the
// durable path end to end.
func TestDurabilityRoundTrip(t *testing.T) {
	g, m := fixture(t)
	opts := core.Options{Seed: 3}
	walk := makeWalk(g, 5, 4)
	dir := filepath.Join(t.TempDir(), "sess")

	s, err := Create(dir, g.Clone(), m, opts, 0, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists false after Create")
	}
	if _, err := Create(dir, g.Clone(), m, opts, 0, Options{}); err == nil {
		t.Fatal("second Create on the same dir succeeded")
	}
	if _, err := s.Apply(context.Background(), nil); err != nil { // initial full build
		t.Fatal(err)
	}
	for i, ops := range walk.batches {
		res, err := s.Apply(context.Background(), ops)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !bytes.Equal(render(t, res), golden(t, walk.shadows[i+1], m, opts)) {
			t.Fatalf("batch %d: durable apply diverges from full rebuild", i)
		}
	}
	st := s.Stats()
	if st.WALRecords != 6 || st.WALBytes == 0 {
		t.Fatalf("wal stats = %+v, want 6 records", st)
	}
	if st.Snapshots == 0 {
		t.Fatal("no periodic snapshots at SnapshotEvery=2")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := s.Apply(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}

	final := golden(t, walk.shadows[len(walk.shadows)-1], m, opts)
	r := resumeAndCheck(t, dir, m, opts, Options{}, 6, OutcomeClean, final)
	if st := r.Stats(); st.Replayed != 0 {
		t.Fatalf("clean resume replayed %d records, want 0", st.Replayed)
	}
	// A clean resume restores the cache whole: the verification Apply in
	// resumeAndCheck recomputed nothing.
	if r.LastDirty() != 0 {
		t.Fatalf("clean resume recomputed %d components, want 0", r.LastDirty())
	}
	r.Close()
}

// crashFixture builds the shared fault-injection scene: a session with a
// snapshot at seq 2 (engine.snap, full cache) and a third batch in the
// active WAL segment — then "crashes" by copying the directory while the
// session is still open. Returns the live dir, the walk, and goldens for
// seq 0..3 (the walk is deterministic, so the goldens are computed once
// and shared across the fault tests).
var (
	crashGoldenOnce sync.Once
	crashGoldens    [][]byte
)

func crashFixture(t *testing.T) (dir string, walk *deltaWalk, m *core.Model, opts core.Options, goldens [][]byte) {
	t.Helper()
	g, m := fixture(t)
	opts = core.Options{Seed: 5}
	walk = makeWalk(g, 3, 4)
	dir = filepath.Join(t.TempDir(), "sess")
	s, err := Create(dir, g.Clone(), m, opts, 0, Options{NoFsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range walk.batches[:2] {
		if _, err := s.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	forceRotate(t, s) // engine.snap @ seq 2, wal-000002.log active
	if _, err := s.Apply(context.Background(), walk.batches[2]); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Close: the copies below are the crash snapshots.
	crashGoldenOnce.Do(func() {
		for k := 0; k <= 3; k++ {
			crashGoldens = append(crashGoldens, golden(t, walk.shadows[k], m, opts))
		}
	})
	if len(crashGoldens) != 4 {
		t.Fatal("crash goldens unavailable (failed in an earlier test)")
	}
	return dir, walk, m, opts, crashGoldens
}

// TestDurabilityTornWriteMatrix truncates the active WAL segment at
// every byte offset of its tail record and asserts each recovery lands
// on exactly the acknowledged prefix, byte-identical to a serial rebuild
// — the torn record was never acked, so a cut anywhere inside it must
// recover seq 2, and only the full record recovers seq 3.
func TestDurabilityTornWriteMatrix(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	tail, err := os.ReadFile(filepath.Join(dir, "wal-000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) < walFrameHeader {
		t.Fatalf("tail segment too small: %d bytes", len(tail))
	}
	for cut := 0; cut <= len(tail); cut++ {
		crashed := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crashed, "wal-000002.log"), tail[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantApplies, wantOutcome, wantBytes := 2, OutcomeTornTail, goldens[2]
		if cut == 0 || cut == len(tail) {
			wantOutcome = OutcomeClean // exact record boundary: nothing torn
		}
		if cut == len(tail) {
			wantApplies, wantBytes = 3, goldens[3]
		}
		s := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, wantApplies, wantOutcome, wantBytes)
		s.Close()
	}
}

// TestDurabilityWALBitFlipTail: a single corrupted byte inside the tail
// record reads as a torn append (the damage reaches EOF) and recovery
// drops exactly that record.
func TestDurabilityWALBitFlipTail(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "wal-000002.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[walFrameHeader+4] ^= 0x20 // payload byte of the only (tail) record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, 2, OutcomeTornTail, goldens[2])
	s.Close()
}

// TestDurabilityWALBitFlipMidLog: corruption inside acknowledged history
// (a flipped byte in record 2 of 3, no snapshot coverage) must stop
// replay at the last verified record and report the loss — recovering an
// exact, older state rather than guessing.
func TestDurabilityWALBitFlipMidLog(t *testing.T) {
	g, m := fixture(t)
	opts := core.Options{Seed: 6}
	walk := makeWalk(g, 3, 4)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := Create(dir, g.Clone(), m, opts, 0, Options{NoFsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range walk.batches {
		if _, err := s.Apply(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "wal-000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find record 2's frame start by decoding record 1.
	recs, dmg := decodeWALStream(data)
	if dmg != walClean || len(recs) != 3 {
		t.Fatalf("setup: %d records, damage %v", len(recs), dmg)
	}
	off := len(encodeWALRecord(recs[0]))
	data[off+walFrameHeader+4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, 1, OutcomeLostSuffix,
		golden(t, walk.shadows[1], m, opts))
	if st := r.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1", st.Replayed)
	}
	r.Close()
}

// TestDurabilityMissingSnapshot: deleting engine.snap falls back to the
// seq-0 base snapshot and replays the whole WAL — same bytes, longer
// road.
func TestDurabilityMissingSnapshot(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	crashed := copyDir(t, dir)
	if err := os.Remove(filepath.Join(crashed, "engine.snap")); err != nil {
		t.Fatal(err)
	}
	r := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, 3, OutcomeClean, goldens[3])
	if st := r.Stats(); st.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", st.Replayed)
	}
	r.Close()
}

// TestDurabilitySnapshotVersionSkew: a snapshot from a different format
// version is rejected wholesale and recovery degrades to an older
// candidate instead of misparsing it.
func TestDurabilitySnapshotVersionSkew(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "engine.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := strings.Replace(string(data), "mariohsnap 1\n", "mariohsnap 2\n", 1)
	if skewed == string(data) {
		t.Fatal("setup: header not found")
	}
	if err := os.WriteFile(path, []byte(skewed), 0o644); err != nil {
		t.Fatal(err)
	}
	s := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, 3, OutcomeSnapshotFallback, goldens[3])
	s.Close()
}

// TestDurabilitySnapshotGraphCorrupt: a flipped byte in the snapshot's
// graph section fails its CRC; recovery falls back past it and still
// reproduces the exact state.
func TestDurabilitySnapshotGraphCorrupt(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "engine.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("\ne "))
	if i < 0 {
		t.Fatal("setup: no edge line")
	}
	data[i+2] = 'q'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := resumeAndCheck(t, crashed, m, opts, Options{NoFsync: true}, 3, OutcomeSnapshotFallback, goldens[3])
	s.Close()
}

// TestDurabilitySnapshotCacheCorrupt: damage confined to the snapshot's
// cache section degrades to a graph-only restore — byte-identical
// output, every component recomputed.
func TestDurabilitySnapshotCacheCorrupt(t *testing.T) {
	dir, _, m, opts, goldens := crashFixture(t)
	crashed := copyDir(t, dir)
	path := filepath.Join(crashed, "engine.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("\nx "))
	if i < 0 {
		t.Fatal("setup: no cache edge line")
	}
	data[i+3] = 'q'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Resume(crashed, m, opts, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Outcome; got != OutcomeCacheDropped {
		t.Fatalf("outcome = %q, want %q", got, OutcomeCacheDropped)
	}
	if got := s.Applies(); got != 3 {
		t.Fatalf("applies = %d, want 3", got)
	}
	res, err := s.Apply(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(t, res), goldens[3]) {
		t.Fatal("cache-dropped recovery diverges from serial rebuild")
	}
	if res.DirtyComponents == 0 || res.DirtyComponents != s.Components() {
		t.Fatalf("dropped cache should force a full recompute: dirty %d, live %d",
			res.DirtyComponents, s.Components())
	}
	s.Close()
}

// TestDurabilityBrokenWALRefusesApplies: once an append fails, the
// session latches broken — no acknowledgement can outrun the log.
func TestDurabilityBrokenWALRefusesApplies(t *testing.T) {
	g, m := fixture(t)
	opts := core.Options{Seed: 2}
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := Create(dir, g, m, opts, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal.f.Close() // simulate the device yanking the handle
	s.mu.Unlock()
	if _, err := s.Apply(context.Background(), nil); !errors.Is(err, ErrStorage) {
		t.Fatalf("Apply on dead WAL = %v, want ErrStorage", err)
	}
	if _, err := s.Apply(context.Background(), nil); !errors.Is(err, ErrStorage) {
		t.Fatalf("broken session served an Apply: %v", err)
	}
}

// TestDurabilityRefusesOverflowingBatch: a batch whose adds take a pair
// past int32 is refused with incremental.ErrBadDelta before it is mutated
// or logged — the graph's bytes, the applies counter and the WAL record
// count stay put and the session does not latch broken — and the next
// batch, and a resume of the directory, still equal a from-scratch
// rebuild.
func TestDurabilityRefusesOverflowingBatch(t *testing.T) {
	g, m := fixture(t)
	opts := core.Options{Seed: 4}
	walk := makeWalk(g, 1, 4)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := Create(dir, g, m, opts, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	graphBytes := func() []byte {
		var buf bytes.Buffer
		if err := s.Graph().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before, records := graphBytes(), s.Stats().WALRecords

	e := walk.shadows[0].Edges()[0]
	half := math.MaxInt32/2 + 1
	bad := []graph.DeltaOp{
		{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: half},
		{Kind: graph.DeltaAdd, U: e.U, V: e.V, W: half},
	}
	if _, err := s.Apply(context.Background(), bad); !errors.Is(err, incremental.ErrBadDelta) {
		t.Fatalf("overflowing batch = %v, want ErrBadDelta", err)
	}
	if !bytes.Equal(graphBytes(), before) || s.Applies() != 1 || s.Stats().WALRecords != records {
		t.Fatalf("refused batch left a trace: applies %d, WAL records %d (was %d)",
			s.Applies(), s.Stats().WALRecords, records)
	}

	res, err := s.Apply(context.Background(), walk.batches[0])
	if err != nil {
		t.Fatalf("apply after the refused batch: %v", err)
	}
	want := golden(t, walk.shadows[1], m, opts)
	if !bytes.Equal(render(t, res), want) {
		t.Fatal("apply after the refused batch diverges from full rebuild")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resumeAndCheck(t, dir, m, opts, Options{}, 2, OutcomeClean, want).Close()
}

// TestWALStreamDecode covers the framing layer directly: clean streams
// round-trip, truncation reads as torn, mid-stream damage reads as
// corrupt with the valid prefix preserved, and duplicate records decode.
func TestWALStreamDecode(t *testing.T) {
	recs := []walRecord{
		{seq: 1, fp: 0xdead, ops: []graph.DeltaOp{{Kind: graph.DeltaAdd, U: 0, V: 1, W: 2}}},
		{seq: 2, fp: 0xbeef, ops: []graph.DeltaOp{{Kind: graph.DeltaRemove, U: 0, V: 1}}},
		{seq: 2, fp: 0xbeef, ops: nil}, // duplicate seq: decodes, replay skips it
	}
	var stream []byte
	var bounds []int
	for _, r := range recs {
		stream = append(stream, encodeWALRecord(r)...)
		bounds = append(bounds, len(stream))
	}

	got, dmg := decodeWALStream(stream)
	if dmg != walClean || len(got) != 3 {
		t.Fatalf("clean stream: %d records, damage %v", len(got), dmg)
	}
	for i := range recs {
		if got[i].seq != recs[i].seq || got[i].fp != recs[i].fp || len(got[i].ops) != len(recs[i].ops) {
			t.Fatalf("record %d round-trip mismatch: %+v", i, got[i])
		}
	}

	got, dmg = decodeWALStream(stream[:bounds[1]+3]) // torn third record
	if dmg != walTorn || len(got) != 2 {
		t.Fatalf("torn stream: %d records, damage %v", len(got), dmg)
	}

	corrupted := append([]byte(nil), stream...)
	corrupted[bounds[0]+walFrameHeader+1] ^= 0xff // damage record 2, record 3 follows
	got, dmg = decodeWALStream(corrupted)
	if dmg != walCorrupt || len(got) != 1 {
		t.Fatalf("corrupt stream: %d records, damage %v", len(got), dmg)
	}

	if got, dmg := decodeWALStream(nil); dmg != walClean || len(got) != 0 {
		t.Fatalf("empty stream: %d records, damage %v", len(got), dmg)
	}
}

// TestDurabilityConcurrentReads: Stats/Applies/Graph race an in-flight
// Apply without tripping the race detector.
func TestDurabilityConcurrentReads(t *testing.T) {
	g, m := fixture(t)
	dir := filepath.Join(t.TempDir(), "sess")
	s, err := Create(dir, g, m, core.Options{Seed: 1}, 0, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Stats()
			s.Applies()
			s.Components()
		}
	}()
	if _, err := s.Apply(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	<-done
}
