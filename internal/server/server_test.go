package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"marioh"
	"marioh/internal/durability"
)

// testSource is a small deterministic supervision hypergraph.
func testSource(t *testing.T) *marioh.Hypergraph {
	t.Helper()
	h := marioh.NewHypergraph(0)
	for _, e := range [][]int{
		{0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {4, 5, 6}, {6, 7, 8},
		{0, 2, 4}, {2, 4, 6}, {7, 8}, {1, 3}, {5, 7, 9},
		{8, 9, 10}, {9, 10, 11}, {2, 5, 8}, {0, 3, 6, 9},
	} {
		h.Add(e)
	}
	return h
}

// testTarget is a small deterministic target projection.
func testTarget(t *testing.T) *marioh.Graph {
	t.Helper()
	h := marioh.NewHypergraph(0)
	for _, e := range [][]int{
		{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {1, 3, 5},
		{6, 7}, {0, 2, 4, 6}, {3, 5, 7}, {1, 4, 7},
	} {
		h.Add(e)
	}
	return h.Project()
}

func graphText(t *testing.T, g *marioh.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func hypergraphText(t *testing.T, h *marioh.Hypergraph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newTestServer boots a Server over httptest with small limits; mutate cfg
// via the optional hook before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *Client) {
	t.Helper()
	cfg := Config{
		Workers:    2,
		QueueDepth: 8,
		Logf:       t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.queue.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, NewClient(ts.URL)
}

// trainOn synchronously drives a training job to completion and returns
// its registry model name.
func trainOn(t *testing.T, c *Client, src *marioh.Hypergraph, saveAs string, spec OptionSpec) TrainResult {
	t.Helper()
	ctx := context.Background()
	info, err := c.Train(ctx, TrainRequest{Source: hypergraphText(t, src), SaveAs: saveAs, Options: spec})
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusQueued && info.Status != StatusRunning {
		t.Fatalf("train job submitted with status %q", info.Status)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	done, err := c.WaitJob(waitCtx, info.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var result TrainResult
	if err := JobResult(done, &result); err != nil {
		t.Fatal(err)
	}
	return result
}

// TestServerTrainReconstructMatchesLibrary is the acceptance criterion: a
// reconstruction served over HTTP must be byte-identical to the same
// request made through the library API, and the model trained server-side
// must serialize to the same bytes as the library-trained one.
func TestServerTrainReconstructMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	// Canonicalize both inputs through their wire form first: training
	// depends on hyperedge order, and the equivalence contract is between
	// the server and a library caller reading the same serialized inputs
	// (exactly what the CI smoke test does with files and mariohctl).
	src, err := parseHypergraph(hypergraphText(t, src))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err = parseGraph(graphText(t, tgt))
	if err != nil {
		t.Fatal(err)
	}
	spec := OptionSpec{Seed: 3, Epochs: 6}

	lib, err := marioh.New(marioh.WithSeed(3), marioh.WithEpochs(6))
	if err != nil {
		t.Fatal(err)
	}
	model, err := lib.Train(ctx, src.Project(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lib.Reconstruct(ctx, tgt)
	if err != nil {
		t.Fatal(err)
	}
	var wantModel, wantRec bytes.Buffer
	if err := marioh.SaveModel(&wantModel, model); err != nil {
		t.Fatal(err)
	}
	if err := res.Hypergraph.Write(&wantRec); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, nil)
	trained := trainOn(t, c, src, "det", spec)
	if trained.Model != "det" || trained.Featurizer != "marioh" {
		t.Fatalf("train result = %+v", trained)
	}

	gotModel, err := c.PullModel(ctx, "det")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotModel) != wantModel.String() {
		t.Fatalf("server-trained model bytes differ from library-trained ones:\nserver: %s\nlib:    %s",
			gotModel, wantModel.String())
	}

	resp, job, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "det", Target: graphText(t, tgt), Options: OptionSpec{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job != nil {
		t.Fatalf("small target should run synchronously, got async job %+v", job)
	}
	if resp.Result.Hypergraph != wantRec.String() {
		t.Fatalf("server reconstruction differs from library call:\nserver:\n%s\nlib:\n%s",
			resp.Result.Hypergraph, wantRec.String())
	}
	if resp.Result.Unique != res.Hypergraph.NumUnique() || resp.Result.Total != res.Hypergraph.NumTotal() {
		t.Fatalf("stats mismatch: %+v vs %d/%d", resp.Result, res.Hypergraph.NumUnique(), res.Hypergraph.NumTotal())
	}
}

// TestServerAsyncReconstructAndBatch covers the forced-async path, job
// polling, and the batch fan-out being positionally aligned and equal to
// the sync results.
func TestServerAsyncReconstructAndBatch(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})

	// Sync baseline.
	sync1, _, err := c.Reconstruct(ctx, ReconstructRequest{Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}

	// Forced async.
	forceAsync := true
	resp, job, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1}, Async: &forceAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil || job == nil {
		t.Fatalf("async=true must return a job, got resp=%v job=%v", resp, job)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	done, err := c.WaitJob(waitCtx, job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var asyncResult ReconstructResult
	if err := JobResult(done, &asyncResult); err != nil {
		t.Fatal(err)
	}
	if asyncResult.Hypergraph != sync1.Result.Hypergraph {
		t.Fatal("async reconstruction differs from sync")
	}

	// Batch over the same target twice: aligned, equal to sync.
	batchJob, err := c.ReconstructBatch(ctx, ReconstructRequest{
		Model: "m", Targets: []string{graphText(t, tgt), graphText(t, tgt)}, Options: OptionSpec{Seed: 1, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err = c.WaitJob(waitCtx, batchJob.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResult
	if err := JobResult(done, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Hypergraph != sync1.Result.Hypergraph {
			t.Fatalf("batch result %d differs from sync reconstruction", i)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// parseSSE parses a complete SSE stream into frames, failing on malformed
// framing.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, frame := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(frame) == "" {
			continue
		}
		var ev sseEvent
		for _, line := range strings.Split(frame, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("malformed SSE line %q in frame %q", line, frame)
			}
		}
		if ev.event == "" || ev.data == "" {
			t.Fatalf("incomplete SSE frame %q", frame)
		}
		events = append(events, ev)
	}
	return events
}

// TestServerJobEventsSSE checks SSE framing: replayed progress events for
// a finished job, monotonically increasing ids, and a final "done" event
// with the terminal status.
func TestServerJobEventsSSE(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})

	forceAsync := true
	_, job, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1}, Async: &forceAsync,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.WaitJob(waitCtx, job.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.Base + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(bufio.NewReader(resp.Body)); err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, buf.String())
	if len(events) < 2 {
		t.Fatalf("want >= 1 progress + done, got %d events: %v", len(events), events)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("event %d = %q, want progress", i, ev.event)
		}
		if !strings.Contains(ev.data, "\"edges_remaining\"") {
			t.Fatalf("progress data misses fields: %s", ev.data)
		}
	}
	last := events[len(events)-1]
	if last.event != "done" || !strings.Contains(last.data, string(StatusSucceeded)) {
		t.Fatalf("final event = %+v, want done/succeeded", last)
	}
}

// TestServerSyncDisconnectCancelsJob pins the cancellation plumbing: a
// synchronous reconstruction whose client goes away is cancelled through
// its request context and lands in the cancelled state.
func TestServerSyncDisconnectCancelsJob(t *testing.T) {
	src, tgt := testSource(t), testTarget(t)
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	s, c := newTestServer(t, func(cfg *Config) {
		cfg.testProgressHook = func(marioh.Progress) {
			once.Do(func() { close(started) })
			<-gate
		}
	})
	trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})

	reqCtx, cancelReq := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Reconstruct(reqCtx, ReconstructRequest{
			Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1},
		})
		errCh <- err
	}()

	<-started // the job is mid-run, blocked in the progress hook
	var recJob *Job
	for _, job := range s.queue.Jobs() {
		if job.Kind == JobReconstruct {
			recJob = job
		}
	}
	if recJob == nil {
		t.Fatal("reconstruct job not registered")
	}
	recJob.mu.Lock()
	runCtx := recJob.runCtx
	recJob.mu.Unlock()

	cancelReq() // client disconnects
	<-runCtx.Done()
	close(gate) // unblock the hook; the run loop now observes the cancellation
	if err := <-errCh; err == nil {
		t.Fatal("disconnected request must error")
	}

	select {
	case <-recJob.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached a terminal state")
	}
	if got := recJob.Status(); got != StatusCancelled {
		t.Fatalf("job status = %q, want cancelled", got)
	}
}

// TestServerFailedInlineStatus pins the one status rule a failed inline
// request answers with: cancellation is 503, everything else maps through
// errStatus, so a drained queue is 503 shutting_down, a storage fault 500
// storage and a workload error 400 bad_request.
func TestServerFailedInlineStatus(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{context.Canceled, http.StatusServiceUnavailable, ""},
		{fmt.Errorf("round 3: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, ""},
		{ErrShuttingDown, http.StatusServiceUnavailable, CodeShuttingDown},
		{fmt.Errorf("%w: append: disk full", durability.ErrStorage), http.StatusInternalServerError, CodeStorage},
		{fmt.Errorf("round 1: %w", marioh.ErrCliqueBudget), http.StatusBadRequest, CodeBadRequest},
		{fmt.Errorf("%w: op 2: overflow", marioh.ErrBadDelta), http.StatusBadRequest, CodeBadRequest},
	} {
		status := failedStatus(tc.err)
		if status != tc.status {
			t.Errorf("failedStatus(%v) = %d, want %d", tc.err, status, tc.status)
		}
		if code := errCode(status, tc.err); tc.code != "" && code != tc.code {
			t.Errorf("failedStatus(%v) answers code %q, want %q", tc.err, code, tc.code)
		}
	}
}

// TestServerSyncReconstructAfterDrainIsShuttingDown: once the queue has
// drained, a synchronous reconstruction cannot register its job and
// answers 503 shutting_down, the refusal's own status.
func TestServerSyncReconstructAfterDrainIsShuttingDown(t *testing.T) {
	s, c := newTestServer(t, nil)
	trainOn(t, c, testSource(t), "m", OptionSpec{Seed: 1, Epochs: 5})
	if err := s.queue.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ReconstructRequest{Model: "m", Target: graphText(t, testTarget(t)), Options: OptionSpec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp := doTenant(t, http.MethodPost, c.Base+"/v1/reconstruct", "", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		resp.Body.Close()
		t.Fatalf("sync reconstruct after drain = %d, want 503", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != CodeShuttingDown {
		t.Fatalf("sync reconstruct after drain: code %q, want %q", e.Code, CodeShuttingDown)
	}
}

// TestServerModelsEndpoints covers the registry surface: upload,
// validation, listing, download round-trip, delete, and 404s.
func TestServerModelsEndpoints(t *testing.T) {
	ctx := context.Background()
	src := testSource(t)
	_, c := newTestServer(t, nil)

	// Upload a library-trained model.
	lib, err := marioh.New(marioh.WithSeed(2), marioh.WithEpochs(5))
	if err != nil {
		t.Fatal(err)
	}
	model, err := lib.Train(ctx, src.Project(), src)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := marioh.SaveModel(&raw, model); err != nil {
		t.Fatal(err)
	}
	info, err := c.PushModel(ctx, "uploaded", raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "uploaded" || info.Featurizer != "marioh" || len(info.Sizes) == 0 {
		t.Fatalf("push info = %+v", info)
	}

	// Garbage payloads and bad names are rejected.
	if _, err := c.PushModel(ctx, "bad", []byte("not a model")); err == nil {
		t.Fatal("garbage model must be rejected")
	}
	if _, err := c.PushModel(ctx, "..", raw.Bytes()); err == nil {
		t.Fatal("path-escaping name must be rejected")
	}

	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "uploaded" {
		t.Fatalf("models = %+v", models)
	}

	got, err := c.PullModel(ctx, "uploaded")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != raw.String() {
		t.Fatal("model download does not round-trip")
	}
	if _, err := marioh.LoadModel(bytes.NewReader(got)); err != nil {
		t.Fatalf("downloaded model does not load: %v", err)
	}

	if err := c.DeleteModel(ctx, "uploaded"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullModel(ctx, "uploaded"); err == nil {
		t.Fatal("deleted model must 404")
	}
	if err := c.DeleteModel(ctx, "uploaded"); err == nil {
		t.Fatal("double delete must 404")
	}
}

// TestServerValidationAndNotFound covers the 4xx surface of the job and
// reconstruct endpoints.
func TestServerValidationAndNotFound(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, nil)

	if _, err := c.Job(ctx, "j-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job: %v", err)
	}
	if _, err := c.CancelJob(ctx, "j-999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("cancel unknown job: %v", err)
	}
	if _, _, err := c.Reconstruct(ctx, ReconstructRequest{Target: "0 1 1"}); err == nil {
		t.Fatal("missing model must be rejected")
	}
	if _, _, err := c.Reconstruct(ctx, ReconstructRequest{Model: "nope", Target: "0 1 1"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := c.Train(ctx, TrainRequest{Source: ""}); err == nil {
		t.Fatal("empty source must be rejected")
	}
	if _, err := c.Train(ctx, TrainRequest{Source: "0 1 2", Options: OptionSpec{Variant: "nope"}}); err == nil {
		t.Fatal("unknown variant must be rejected before queueing")
	}
	if _, err := c.ReconstructBatch(ctx, ReconstructRequest{Model: "m"}); err == nil {
		t.Fatal("batch without targets must be rejected")
	}
}

// TestServerMalformedGraphTextIsBadRequest: graph and hypergraph texts
// the readers reject — a self-loop, a negative node id, an overflowing
// weight, a one-node hyperedge, a zero multiplicity, a training source
// whose projection overflows int32 — are the client's fault and answer
// 400 bad_request, not a failed job or a recovered panic's 500. So are
// negative option values, which their validators reject on every route
// instead of running the default.
func TestServerMalformedGraphTextIsBadRequest(t *testing.T) {
	_, c := newTestServer(t, nil)
	trainOn(t, c, testSource(t), "m", OptionSpec{Seed: 1, Epochs: 5})
	post := func(path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp := doTenant(t, http.MethodPost, c.Base+path, "", body)
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("%s %s = %d, want 400", path, body, resp.StatusCode)
		}
		if e := decodeEnvelope(t, resp); e.Code != CodeBadRequest {
			t.Fatalf("%s %s: code %q, want %q", path, body, e.Code, CodeBadRequest)
		}
	}
	for _, target := range []string{"0 0 1", "-1 3 1", "0 1 2000000000\n0 1 2000000000"} {
		post("/v1/reconstruct", ReconstructRequest{Model: "m", Target: target})
	}
	for _, source := range []string{"1 1 # 1", "0 1 # 0", "-1 2",
		"0 1 # 3000000000", "0 1 # 2000000000\n0 1 2 # 2000000000"} {
		post("/v1/train", TrainRequest{Source: source})
	}
	for _, spec := range []OptionSpec{
		{MaxRounds: -1}, {CliqueLimit: -1}, {Epochs: -1},
		{Parallelism: -1}, {Supervision: -1}, {NegRatio: -1},
	} {
		post("/v1/reconstruct", ReconstructRequest{Model: "m", Target: "0 1 1", Options: spec})
		post("/v1/train", TrainRequest{Source: "0 1 2", Options: spec})
	}
}

// TestServerHostileGraphHitsCliqueBudget: the Moon–Moser graph on 36
// nodes — 12 independent triples, every other pair joined with weight
// 1 — is one component with 3^12 = 531,441 maximal cliques, and filtering
// removes none of its edges. Posted to /v1/reconstruct with clique_limit
// 10000, it answers 400 bad_request naming the budget and the round,
// after scoring at most a few budgets' worth of cliques; the heap growth
// seen through runtime.MemStats is logged.
func TestServerHostileGraphHitsCliqueBudget(t *testing.T) {
	_, c := newTestServer(t, nil)
	trainOn(t, c, testSource(t), "m", OptionSpec{Seed: 1, Epochs: 5})
	g := marioh.NewGraph(36)
	for u := 0; u < 36; u++ {
		for v := u + 1; v < 36; v++ {
			if u/3 != v/3 {
				g.AddWeight(u, v, 1)
			}
		}
	}
	async := false
	body, err := json.Marshal(ReconstructRequest{Model: "m", Target: graphText(t, g), Async: &async,
		Options: OptionSpec{Seed: 1, CliqueLimit: 10000}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp := doTenant(t, http.MethodPost, c.Base+"/v1/reconstruct", "", body)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		resp.Body.Close()
		t.Fatalf("hostile graph = %d, want 400", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != CodeBadRequest || !strings.Contains(e.Message, "clique budget") ||
		!strings.Contains(e.Message, "more than 10000 maximal cliques in round 1") {
		t.Fatalf("hostile graph: %s %q, want bad_request naming the clique budget and round", e.Code, e.Message)
	}
	t.Logf("heap in use grew by %d KiB (%d KiB allocated in all) while serving the request",
		(int64(after.HeapInuse)-int64(before.HeapInuse))/1024, (after.TotalAlloc-before.TotalAlloc)/1024)
}

// TestServerHealthAndMetrics checks the observability endpoints.
func TestServerHealthAndMetrics(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})
	if _, _, err := c.Reconstruct(ctx, ReconstructRequest{Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1}}); err != nil {
		t.Fatal(err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != marioh.Version || h.Workers != 2 || h.Models != 1 {
		t.Fatalf("health = %+v", h)
	}

	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`marioh_requests_total{route="POST /v1/train"} 1`,
		`marioh_requests_total{route="POST /v1/reconstruct"} 1`,
		`marioh_job_events_total{event="submitted"} 2`,
		`marioh_job_events_total{event="succeeded"} 2`,
		`marioh_stage_runs_total{stage="filter"} 1`,
		`marioh_stage_runs_total{stage="train_optimize"} 1`,
		"marioh_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output misses %q:\n%s", want, text)
		}
	}
}

// TestServerPersistentRegistry checks that a disk-backed registry
// survives a server restart.
func TestServerPersistentRegistry(t *testing.T) {
	ctx := context.Background()
	src := testSource(t)
	dir := t.TempDir()

	_, c := newTestServer(t, func(cfg *Config) { cfg.ModelsDir = dir })
	trainOn(t, c, src, "persisted", OptionSpec{Seed: 1, Epochs: 5})
	raw, err := c.PullModel(ctx, "persisted")
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, func(cfg *Config) { cfg.ModelsDir = dir })
	raw2, err := c2.PullModel(ctx, "persisted")
	if err != nil {
		t.Fatalf("model lost across restart: %v", err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("model bytes changed across restart")
	}
}

// TestServerShardedReconstructMatchesSerial: a reconstruct request with
// shards set must fan out through the queue's task lane and still return
// exactly the serial pipeline's bytes, with shard metadata in the result
// and shard counters in /metrics.
func TestServerShardedReconstructMatchesSerial(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, nil)
	trainOn(t, c, src, "m", OptionSpec{Seed: 2, Epochs: 5})

	serial, _, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Result.Shards != 0 {
		t.Fatalf("serial result reports %d shards", serial.Result.Shards)
	}
	for _, shards := range []int{1, 4, 16} {
		res, _, err := c.Reconstruct(ctx, ReconstructRequest{
			Model: "m", Target: graphText(t, tgt),
			Options: OptionSpec{Seed: 2, Shards: shards},
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Result.Hypergraph != serial.Result.Hypergraph {
			t.Fatalf("shards=%d: served reconstruction diverges from the serial pipeline", shards)
		}
		if res.Result.Shards < 1 {
			t.Fatalf("shards=%d: result reports %d shards", shards, res.Result.Shards)
		}
	}

	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "marioh_sharded_runs_total 3") {
		t.Fatalf("metrics miss sharded run counter:\n%s", text)
	}
	if !strings.Contains(text, "marioh_shards_processed_total") {
		t.Fatalf("metrics miss shards processed counter:\n%s", text)
	}

	// Negative shard counts are rejected before a job is queued.
	if _, _, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Shards: -1},
	}); err == nil {
		t.Fatal("negative shard count must be rejected")
	}

	// shard_target is no longer an option. The decoder ignores unknown
	// fields, so a client that still sends it gets the same bytes.
	body, err := json.Marshal(map[string]any{
		"model": "m", "target": graphText(t, tgt),
		"options": map[string]any{"seed": 2, "shards": 4, "shard_target": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	legacy := doTenant(t, http.MethodPost, c.Base+"/v1/reconstruct", "", body)
	defer legacy.Body.Close()
	var got ReconstructResponse
	if err := json.NewDecoder(legacy.Body).Decode(&got); err != nil || legacy.StatusCode != http.StatusOK {
		t.Fatalf("request with shard_target = %d, %v", legacy.StatusCode, err)
	}
	if got.Result.Hypergraph != serial.Result.Hypergraph {
		t.Fatal("request with shard_target diverges from the serial pipeline")
	}
}
