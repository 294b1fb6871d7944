package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"marioh"
	"marioh/internal/core"
	"marioh/internal/graph"
	"marioh/internal/incremental"
)

// Delta batches come in blocks of blockLen, the default SnapshotEvery, so
// a block is one snapshot cycle; a batch changes opsPerBatch edge weights.
const (
	blockLen    = 8
	opsPerBatch = 2
)

// deltaPlan generates seeded delta batches that toggle edge weights
// between ω and ω+1 and stay off the largest component: the graph's shape
// never drifts, and every batch changes the fingerprint of the component
// it touches.
type deltaPlan struct {
	rng   *rand.Rand
	giant []graph.Edge   // edges of the largest component
	small [][]graph.Edge // edges of every other edge-bearing component
	base  map[[2]int]int // original weight of every edge
	cur   map[[2]int]int // current weight of toggled edges
}

func newDeltaPlan(g *graph.Graph, seed int64) *deltaPlan {
	p := &deltaPlan{rng: rand.New(rand.NewSource(seed)), base: map[[2]int]int{}, cur: map[[2]int]int{}}
	comps := g.ConnectedComponents()
	biggest := -1
	for ci, c := range comps {
		if len(c) > 1 && (biggest < 0 || len(c) > len(comps[biggest])) {
			biggest = ci
		}
	}
	for ci, c := range comps {
		if len(c) < 2 {
			continue
		}
		sub, back := g.Subgraph(c)
		edges := sub.Edges()
		for k, e := range edges {
			edges[k] = graph.Edge{U: back[e.U], V: back[e.V], W: e.W}
			p.base[[2]int{back[e.U], back[e.V]}] = e.W
		}
		if ci == biggest {
			p.giant = edges
		} else {
			p.small = append(p.small, edges)
		}
	}
	if len(p.small) == 0 {
		// No other edge-bearing component (eu's target has one): small
		// batches join and split pairs of isolated nodes instead, each
		// pair a tiny component of its own while joined.
		var iso []int
		for _, c := range comps {
			if len(c) == 1 {
				iso = append(iso, c[0])
			}
		}
		for i := 0; i+3 < len(iso); i += 4 {
			pair := []graph.Edge{{U: iso[i], V: iso[i+1]}, {U: iso[i+2], V: iso[i+3]}}
			for _, e := range pair {
				p.base[[2]int{e.U, e.V}] = 0
			}
			p.small = append(p.small, pair)
		}
	}
	return p
}

// next returns the next batch: the edges of one small component, or of
// the largest when there is no other.
func (p *deltaPlan) next() []marioh.DeltaOp {
	pool := p.giant
	if len(p.small) > 0 {
		pool = p.small[p.rng.Intn(len(p.small))]
	}
	var ops []marioh.DeltaOp
	picked := map[int]bool{}
	for len(ops) < min(opsPerBatch, len(pool)) {
		k := p.rng.Intn(len(pool))
		if picked[k] {
			continue
		}
		picked[k] = true
		e := pool[k]
		key := [2]int{e.U, e.V}
		w, ok := p.cur[key]
		if !ok {
			w = p.base[key]
		}
		nw := p.base[key]
		if w == nw {
			nw++
		}
		p.cur[key] = nw
		ops = append(ops, marioh.DeltaOp{Kind: marioh.DeltaSet, U: e.U, V: e.V, W: nw})
	}
	return ops
}

// openSession opens a durable session over g in dir and runs the initial
// empty Apply.
func (r *runner) openSession(g *marioh.Graph, model *marioh.Model, seed int64, dir string) (*marioh.Session, *marioh.Result, error) {
	rec, err := marioh.New(marioh.WithSeed(seed), marioh.WithModel(model))
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	s, err := rec.NewSession(ctx, marioh.SessionConfig{Graph: g, Durable: &marioh.DurableOptions{Dir: dir}})
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Apply(ctx, marioh.Delta{})
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, res, nil
}

// sessionTwins feeds every batch a durable session receives to an
// in-memory incremental.Engine and a graph.Tracker over the same graph.
type sessionTwins struct {
	eng *incremental.Engine
	trk *graph.Tracker
}

func newSessionTwins(g *marioh.Graph, model *marioh.Model, seed int64) (*sessionTwins, error) {
	eng := incremental.New(g.Clone(), model, core.Options{Seed: seed}, 0)
	if _, err := eng.Apply(context.Background(), nil); err != nil {
		return nil, err
	}
	return &sessionTwins{eng: eng, trk: graph.NewTracker(g.Clone())}, nil
}

// twinApply runs one batch through the durable session and both twins,
// spanning each call, and checks the session's output against the
// in-memory engine's.
func (r *runner) twinApply(t *sessionTwins, sess *marioh.Session, op int, ops []marioh.DeltaOp) error {
	ctx := context.Background()
	snaps := sess.Stats().Snapshots
	var (
		res     *marioh.Result
		err     error
		twinRes *core.Result
		twinErr error
	)
	parent := r.tr.begin("replay.session", op, -1)
	durLat := r.tr.timed("marioh.Session.Apply", op, parent, func() { res, err = sess.Apply(ctx, marioh.Delta{Ops: ops}) })
	if err != nil {
		return err
	}
	twinLat := r.tr.timed("incremental.Engine.Apply", op, parent, func() { twinRes, twinErr = t.eng.Apply(ctx, ops) })
	if twinErr != nil {
		return twinErr
	}
	trkLat := r.tr.timed("graph.Tracker.Apply", op, parent, func() {
		for _, o := range ops {
			t.trk.Apply(o)
		}
	})
	r.tr.end(parent)

	// Dirty share from the tracker twin: edges of every touched component
	// over all live edges.
	g := t.trk.Graph()
	seen := map[int]bool{}
	dirtyEdges := 0
	for _, u := range t.trk.Touched() {
		if seen[u] {
			continue
		}
		for _, v := range t.trk.Component(u) {
			seen[v] = true
			dirtyEdges += g.Degree(v)
		}
	}
	t.trk.ResetTouched()
	r.layer("durability.apply_ms", ms(durLat))
	r.layer("incremental.apply_ms", ms(twinLat))
	r.layer("durability.wal_ms", ms(durLat-twinLat))
	r.layer("graph.tracker_us", float64(trkLat)/1e3)
	r.layer("incremental.dirty_components", float64(twinRes.DirtyComponents))
	if g.NumEdges() > 0 {
		r.layer("incremental.dirty_edge_share", float64(dirtyEdges/2)/float64(g.NumEdges()))
	}
	if sess.Stats().Snapshots > snaps {
		r.layer("durability.snapshot_apply_ms", ms(durLat))
	}
	r.same(encode(res.Hypergraph), encode(twinRes.Hypergraph), fmt.Sprintf("session apply %d against the in-memory engine", op))
	return nil
}

// sessionStats records the per-layer metrics read from SessionStats.
func (r *runner) sessionStats(sess *marioh.Session) {
	st := sess.Stats()
	if st.WALRecords > 0 {
		r.metrics["durability.wal_bytes"] = float64(st.WALBytes) / float64(st.WALRecords)
	}
	r.metrics["durability.snapshots"] = float64(st.Snapshots)
}

// sweepSession exercises the session layers once on a workload's input: a
// durable session over g, its twins, and two snapshot cycles of batches
// that stay off the largest component.
func (r *runner) sweepSession(g *marioh.Graph, model *marioh.Model, seed int64, want []byte) error {
	sess, initial, err := r.openSession(g, model, seed, filepath.Join(r.work, "sweep-session"))
	if err != nil {
		return err
	}
	defer sess.Close()
	r.same(encode(initial.Hypergraph), want, "session sweep initial build")
	twins, err := newSessionTwins(g, model, seed)
	if err != nil {
		return err
	}
	plan := newDeltaPlan(g, seed)
	for i := 0; i < 2*blockLen; i++ {
		ops := plan.next()
		if err := r.twinApply(twins, sess, -1, ops); err != nil {
			return err
		}
	}
	r.attempted += 1 + 2*blockLen
	r.sessionStats(sess)
	return nil
}
