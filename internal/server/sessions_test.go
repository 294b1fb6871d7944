package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"marioh"
)

// TestServerSessionLifecycle drives the full session flow over HTTP:
// create, initial apply (full build), delta apply (incremental), info,
// list, SSE events, delete — asserting the served reconstructions are
// byte-identical to library full rebuilds of the same mutated graph.
func TestServerSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	src, err := parseHypergraph(hypergraphText(t, src))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err = parseGraph(graphText(t, tgt))
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m1", OptionSpec{Seed: 3, Epochs: 6})

	lib, err := marioh.New(marioh.WithSeed(3), marioh.WithEpochs(6))
	if err != nil {
		t.Fatal(err)
	}
	model, err := lib.Train(ctx, src.Project(), src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := marioh.New(marioh.WithSeed(3), marioh.WithModel(model))
	if err != nil {
		t.Fatal(err)
	}

	info, err := c.CreateSession(ctx, SessionRequest{
		Model: "m1", Graph: graphText(t, tgt), Options: OptionSpec{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Model != "m1" || info.Edges != tgt.NumEdges() {
		t.Fatalf("session info = %+v", info)
	}

	// Initial apply: empty delta stream builds everything.
	resp, job, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if job != nil {
		t.Fatal("default apply should be synchronous")
	}
	wantRes, err := full.Reconstruct(ctx, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Hypergraph != hypergraphText(t, wantRes.Hypergraph) {
		t.Fatal("initial session apply diverges from library reconstruction")
	}
	if resp.Result.Dirty == 0 || resp.Session.Applies != 1 {
		t.Fatalf("initial apply: dirty %d applies %d", resp.Result.Dirty, resp.Session.Applies)
	}

	// Delta apply: mutate a shadow copy the same way and full-rebuild it.
	deltas := "+ 0 7 2\n- 6 7\n= 1 2 3\n"
	shadow := tgt.Clone()
	ops, err := marioh.ReadDeltas(strings.NewReader(deltas))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.Kind {
		case marioh.DeltaAdd:
			shadow.AddWeight(op.U, op.V, op.W)
		case marioh.DeltaRemove:
			shadow.RemoveEdge(op.U, op.V)
		case marioh.DeltaSet:
			shadow.SetWeight(op.U, op.V, op.W)
		}
	}
	resp, _, err = c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err = full.Reconstruct(ctx, shadow)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Hypergraph != hypergraphText(t, wantRes.Hypergraph) {
		t.Fatal("incremental session apply diverges from full rebuild of the mutated graph")
	}

	// Info and listing reflect the applies.
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applies != 2 || got.LastJob == "" {
		t.Fatalf("session after applies = %+v", got)
	}
	list, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("sessions list = %+v", list)
	}

	// SSE: the session events endpoint replays the last apply's progress.
	httpResp, err := http.Get(c.Base + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var sse bytes.Buffer
	if _, err := sse.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	events := parseSSE(t, sse.String())
	sawProgress, sawDone := false, false
	for _, ev := range events {
		switch ev.event {
		case "progress":
			sawProgress = true
			if !strings.Contains(ev.data, "\"dirty\"") {
				t.Fatalf("session progress event misses dirty count: %s", ev.data)
			}
		case "done":
			sawDone = true
		}
	}
	if !sawProgress || !sawDone {
		t.Fatalf("session SSE stream incomplete: %+v", events)
	}

	// Delete; the id must stop resolving.
	if err := c.DeleteSession(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Session(ctx, info.ID); err == nil {
		t.Fatal("deleted session still resolvable")
	}
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{}); err == nil {
		t.Fatal("apply on deleted session succeeded")
	}
}

// TestServerSessionAsyncApply: {"async": true} queues the apply as a job
// whose result carries the reconstruction.
func TestServerSessionAsyncApply(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})
	info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt), Options: OptionSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	async := true
	resp, job, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Async: &async})
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil || job == nil {
		t.Fatalf("async apply: resp=%v job=%v", resp, job)
	}
	if job.Kind != JobSession {
		t.Fatalf("job kind %q, want %q", job.Kind, JobSession)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	done, err := c.WaitJob(waitCtx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReconstructResult
	if err := JobResult(done, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Unique == 0 || rr.Dirty == 0 {
		t.Fatalf("async apply result = %+v", rr)
	}
	// The session's info now points at the finished job.
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastJob != job.ID {
		t.Fatalf("session last job %q, want %q", got.LastJob, job.ID)
	}
}

// TestServerSessionLRUEviction: the session store evicts the
// least-recently-used session past the configured limit, and the
// marioh_session_* metrics move.
func TestServerSessionLRUEviction(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, func(cfg *Config) { cfg.SessionLimit = 2 })
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})

	var ids []string
	for i := 0; i < 3; i++ {
		info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		// Touch the latest so LRU order matches creation order.
		if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Session(ctx, ids[0]); err == nil {
		t.Fatal("oldest session survived past the LRU limit")
	}
	for _, id := range ids[1:] {
		if _, err := c.Session(ctx, id); err != nil {
			t.Fatalf("session %s evicted unexpectedly: %v", id, err)
		}
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 2 {
		t.Fatalf("health sessions = %d, want 2", h.Sessions)
	}
	metricsResp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(metricsResp.Body); err != nil {
		t.Fatal(err)
	}
	metricsResp.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{
		"marioh_sessions_open 2",
		"marioh_session_created_total 3",
		"marioh_session_evictions_total 1",
		"marioh_session_applies_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "marioh_session_dirty_components_total") {
		t.Error("metrics missing session dirty-components counter")
	}
}

// TestServerSessionApplyHardening pins the abuse-resistance of the apply
// path: int32-overflowing weights and node ids far beyond the session's
// growth bound are rejected at the wire (400, session stays usable), and
// a second apply while one is in flight gets 409 instead of interleaving.
func TestServerSessionApplyHardening(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	release := make(chan struct{})
	var block sync.Once
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.testProgressHook = func(marioh.Progress) {
			block.Do(func() { <-release })
		}
	})
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})
	info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)})
	if err != nil {
		t.Fatal(err)
	}

	// Overflowing weight: rejected by the delta parser, 400.
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "+ 0 1 3000000000\n"}); err == nil {
		t.Fatal("int32-overflowing delta weight accepted")
	}
	// Node id far beyond the dense growth bound: rejected before any
	// allocation happens.
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "+ 0 999999999 1\n"}); err == nil {
		t.Fatal("unbounded node id accepted")
	}

	// Concurrent applies: the first blocks on the progress hook, the
	// second must get 409 Conflict, and after the first finishes the
	// session accepts work again.
	async := true
	_, job, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Async: &async})
	if err != nil {
		t.Fatal(err)
	}
	status, _, err := c.doRaw(ctx, http.MethodPost, "/v1/sessions/"+info.ID+"/apply", SessionApplyRequest{})
	if err == nil || status != http.StatusConflict {
		t.Fatalf("overlapping apply: status %d err %v, want 409", status, err)
	}
	close(release)
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.WaitJob(waitCtx, job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{}); err != nil {
		t.Fatalf("apply after slot release: %v", err)
	}
}

// TestServerSessionApplyRefusesOverflowingBatch: two adds that each pass
// the delta reader but together take a pair past int32 are refused whole
// with 400 bad_request, before anything lands: the error carries no stack,
// the applies counter stays at 0, and a retry guarded by seq 0 succeeds.
func TestServerSessionApplyRefusesOverflowingBatch(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, nil)
	trainOn(t, c, testSource(t), "m1", OptionSpec{Seed: 1, Epochs: 5})
	info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, testTarget(t))})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SessionApplyRequest{Deltas: "+ 0 1 2000000000\n+ 0 1 2000000000\n"})
	if err != nil {
		t.Fatal(err)
	}
	resp := doTenant(t, http.MethodPost, c.Base+"/v1/sessions/"+info.ID+"/apply", "", body)
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("overflowing batch = %d, want 400", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != CodeBadRequest || strings.Contains(e.Message, "goroutine") {
		t.Fatalf("overflowing batch answered %q: %q", e.Code, e.Message)
	}
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applies != 0 {
		t.Fatalf("refused batch counted: applies %d", got.Applies)
	}
	seq := 0
	applied, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "+ 0 1 2\n", Seq: &seq})
	if err != nil {
		t.Fatalf("seq 0 retry after the refused batch: %v", err)
	}
	if applied.Session.Applies != 1 {
		t.Fatalf("retry applies = %d, want 1", applied.Session.Applies)
	}
}

// TestServerSessionValidation: malformed creates and applies fail with
// 4xx, unknown ids with 404.
func TestServerSessionValidation(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})

	for name, req := range map[string]SessionRequest{
		"missing model": {Graph: graphText(t, tgt)},
		"missing graph": {Model: "m1"},
		"unknown model": {Model: "nope", Graph: graphText(t, tgt)},
		"bad graph":     {Model: "m1", Graph: "not a graph"},
	} {
		if _, err := c.CreateSession(ctx, req); err == nil {
			t.Errorf("%s: create succeeded", name)
		}
	}
	if _, err := c.Session(ctx, "s-999999"); err == nil {
		t.Error("unknown session id resolved")
	}
	if err := c.DeleteSession(ctx, "s-999999"); err == nil {
		t.Error("unknown session id deleted")
	}
	info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "+ 1 1 1\n"}); err == nil {
		t.Error("self-loop delta accepted")
	}
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "? 1 2\n"}); err == nil {
		t.Error("malformed delta accepted")
	}
	// Events before any apply: a clean 404, not a hang.
	resp, err := http.Get(c.Base + "/v1/sessions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events before first apply: status %d, want 404", resp.StatusCode)
	}
}

// newDurableTestServer boots a server with on-disk models and sessions
// rooted at dir, so a second instance over the same dir simulates a
// daemon restart.
func newDurableTestServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *Client) {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.ModelsDir = dir + "/models"
		cfg.DataDir = dir + "/data"
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// TestServerSessionDurableRestart: a session created with a data dir
// survives an unclean daemon restart (no shutdown parking — the second
// instance recovers purely from the WAL and snapshots), and the resumed
// session's next apply is byte-identical to a library rebuild of the
// same delta sequence.
func TestServerSessionDurableRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	src, tgt := testSource(t), testTarget(t)

	_, c1 := newDurableTestServer(t, dir, nil)
	trainOn(t, c1, src, "m1", OptionSpec{Seed: 3, Epochs: 6})
	info, err := c1.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt), Options: OptionSpec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Durable {
		t.Fatalf("session with a data dir is not durable: %+v", info)
	}
	if _, _, err := c1.ApplySession(ctx, info.ID, SessionApplyRequest{}); err != nil {
		t.Fatal(err)
	}
	deltas := "+ 0 7 2\n- 6 7\n= 1 2 3\n"
	before, _, err := c1.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: deltas})
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": boot a second server over the same directories without any
	// clean shutdown of the first.
	_, c2 := newDurableTestServer(t, dir, nil)
	list, err := c2.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != info.ID || !list[0].Durable || !list[0].Parked {
		t.Fatalf("restarted server sessions = %+v", list)
	}
	// An empty apply on the recovered session must reproduce the exact
	// pre-crash reconstruction.
	after, _, err := c2.ApplySession(ctx, info.ID, SessionApplyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Result.Hypergraph != before.Result.Hypergraph {
		t.Fatal("recovered session reconstruction diverges from the pre-crash result")
	}
	got, err := c2.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applies != 3 || got.Parked || got.Recovery == "" {
		t.Fatalf("recovered session info = %+v", got)
	}

	metricsResp, err := http.Get(c2.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(metricsResp.Body); err != nil {
		t.Fatal(err)
	}
	metricsResp.Body.Close()
	metrics := mbuf.String()
	for _, want := range []string{
		"marioh_recovery_total{outcome=",
		"marioh_wal_appends_total 1", // the empty post-recovery apply
		"marioh_snapshot_writes_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerSessionDurableEviction: past the session limit a durable
// session parks to disk (persisted eviction) instead of being dropped,
// stays listed, and transparently rehydrates on its next apply.
func TestServerSessionDurableEviction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	src, tgt := testSource(t), testTarget(t)
	_, c := newDurableTestServer(t, dir, func(cfg *Config) { cfg.SessionLimit = 1 })
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})

	a, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)})
	if err != nil {
		t.Fatal(err)
	}
	firstA, _, err := c.ApplySession(ctx, a.ID, SessionApplyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)}); err != nil {
		t.Fatal(err)
	}

	// A must be parked, not gone.
	got, err := c.Session(ctx, a.ID)
	if err != nil {
		t.Fatalf("parked session dropped from the listing: %v", err)
	}
	if !got.Parked || !got.Durable {
		t.Fatalf("evicted durable session info = %+v", got)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 1 || h.Parked != 1 {
		t.Fatalf("health = sessions %d parked %d, want 1/1", h.Sessions, h.Parked)
	}

	// Rehydrate by applying again; the reconstruction must match the
	// pre-park one exactly.
	again, _, err := c.ApplySession(ctx, a.ID, SessionApplyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.Hypergraph != firstA.Result.Hypergraph {
		t.Fatal("rehydrated session reconstruction diverges")
	}
	if again.Session.Parked || again.Session.Recovery == "" {
		t.Fatalf("rehydrated session info = %+v", again.Session)
	}

	metricsResp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(metricsResp.Body); err != nil {
		t.Fatal(err)
	}
	metricsResp.Body.Close()
	if !strings.Contains(mbuf.String(), `marioh_session_evicted_total{persisted="true"} `) {
		t.Error("metrics missing persisted eviction counter")
	}
}

// TestServerSessionSeqGuard: an apply asserting a stale applies counter
// gets 409 without mutating; the matching guard passes.
func TestServerSessionSeqGuard(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m1", OptionSpec{Seed: 1, Epochs: 5})
	info, err := c.CreateSession(ctx, SessionRequest{Model: "m1", Graph: graphText(t, tgt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{}); err != nil {
		t.Fatal(err)
	}

	stale := 0
	status, _, err := c.doRaw(ctx, http.MethodPost, "/v1/sessions/"+info.ID+"/apply",
		SessionApplyRequest{Deltas: "+ 0 7 2\n", Seq: &stale})
	if err == nil || status != http.StatusConflict {
		t.Fatalf("stale seq guard: status %d err %v, want 409", status, err)
	}
	got, err := c.Session(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Applies != 1 {
		t.Fatalf("guarded-out apply still mutated: applies %d", got.Applies)
	}

	match := 1
	resp, _, err := c.ApplySession(ctx, info.ID, SessionApplyRequest{Deltas: "+ 0 7 2\n", Seq: &match})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Session.Applies != 2 {
		t.Fatalf("matching seq guard apply = %+v", resp.Session)
	}
}
