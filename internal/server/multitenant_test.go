package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marioh"
	"marioh/internal/admission"
)

// doTenant issues a raw request with a tenant header, returning the
// response (the caller closes the body). Raw HTTP, not the Client, so
// tests see exact statuses and bodies without retry interference.
func doTenant(t *testing.T, method, url, tenant string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeEnvelope reads and parses the unified error envelope from a
// non-2xx response body.
func decodeEnvelope(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response body is not the error envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope misses code/message: %+v", env.Error)
	}
	return env.Error
}

// metricsText scrapes /metrics.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServerTenantRateLimit: each tenant gets its own token bucket; the
// bucket emptying answers 429 with the rate_limited envelope and a
// Retry-After header, without affecting other tenants. A malformed
// tenant header is a 400 before any admission state is touched.
func TestServerTenantRateLimit(t *testing.T) {
	_, c := newTestServer(t, func(cfg *Config) {
		cfg.TenantRate = 0.001 // refill far slower than the test runs
		cfg.TenantBurst = 2
	})

	for i := 0; i < 2; i++ {
		resp := doTenant(t, http.MethodGet, c.Base+"/v1/jobs", "alice", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alice request %d = %d, want 200", i+1, resp.StatusCode)
		}
	}
	resp := doTenant(t, http.MethodGet, c.Base+"/v1/jobs", "alice", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header = %q, want a positive delay", ra)
	}
	body := decodeEnvelope(t, resp)
	if body.Code != CodeRateLimited {
		t.Fatalf("envelope code = %q, want %q", body.Code, CodeRateLimited)
	}
	if body.RetryAfterS <= 0 {
		t.Fatalf("envelope retry_after_s = %v, want > 0", body.RetryAfterS)
	}

	// Another tenant's bucket is untouched.
	resp = doTenant(t, http.MethodGet, c.Base+"/v1/jobs", "bob", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob rides alice's rate limit: %d", resp.StatusCode)
	}

	// Malformed tenant identities never reach the buckets.
	resp = doTenant(t, http.MethodGet, c.Base+"/v1/jobs", "no spaces allowed", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant header = %d, want 400", resp.StatusCode)
	}
	if body := decodeEnvelope(t, resp); body.Code != CodeBadRequest {
		t.Fatalf("invalid tenant code = %q, want %q", body.Code, CodeBadRequest)
	}

	text := metricsText(t, c.Base)
	if !strings.Contains(text, `marioh_admission_rejected_total{reason="rate"} 1`) {
		t.Fatalf("metrics miss the rate rejection counter:\n%s", text)
	}
	if !strings.Contains(text, "marioh_tenants_active") {
		t.Fatalf("metrics miss the active tenants gauge:\n%s", text)
	}
}

// TestServerTenantSessionQuota: TenantMaxSessions bounds each tenant's
// open sessions; the quota slot is held until the session is deleted and
// rejections carry the quota_exceeded envelope through the typed client
// error.
func TestServerTenantSessionQuota(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	_, c := newTestServer(t, func(cfg *Config) { cfg.TenantMaxSessions = 1 })
	trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})

	alice := NewClient(c.Base)
	alice.Tenant = "alice"
	req := SessionRequest{Model: "m", Graph: graphText(t, tgt), Options: OptionSpec{Seed: 1}}

	first, err := alice.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Tenant != "alice" {
		t.Fatalf("session tenant = %q, want alice", first.Tenant)
	}

	_, err = alice.CreateSession(ctx, req)
	var aerr *APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("second session error is not an *APIError: %v", err)
	}
	if aerr.Status != http.StatusTooManyRequests || aerr.Code != CodeQuotaExceeded {
		t.Fatalf("second session rejection = %+v, want 429 %s", aerr, CodeQuotaExceeded)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatalf("quota rejection carries no Retry-After: %+v", aerr)
	}

	// The quota is per tenant, not global.
	bob := NewClient(c.Base)
	bob.Tenant = "bob"
	if _, err := bob.CreateSession(ctx, req); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}

	// Deleting the session frees the slot.
	if err := alice.DeleteSession(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.CreateSession(ctx, req); err != nil {
		t.Fatalf("slot not released on delete: %v", err)
	}

	text := metricsText(t, c.Base)
	if !strings.Contains(text, `marioh_admission_rejected_total{reason="sessions"} 1`) {
		t.Fatalf("metrics miss the session quota rejection:\n%s", text)
	}
}

// holdFirstReconstruction returns a progress hook that, once armed, blocks
// the first progress event it sees until release is called (signalling
// started), and lets every other event through. release may be called
// more than once, so a test can also run it as a cleanup.
func holdFirstReconstruction(armed *atomic.Bool, started chan struct{}) (hook marioh.ProgressFunc, release func()) {
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	var held atomic.Bool
	return func(marioh.Progress) {
		if armed.Load() && held.CompareAndSwap(false, true) {
			close(started)
			<-gate
		}
	}, release
}

// wantQuotaRejection asserts a 429 quota_exceeded answer with Retry-After.
func wantQuotaRejection(t *testing.T, what string, resp *http.Response) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("%s = %d, want 429", what, resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("%s: no Retry-After header", what)
	}
	if e := decodeEnvelope(t, resp); e.Code != CodeQuotaExceeded {
		t.Fatalf("%s: code %q, want %q", what, e.Code, CodeQuotaExceeded)
	}
}

// TestServerTenantJobQuota drives TenantMaxJobs through the routes: while
// a tenant's reconstruction holds its only job slot, its async and sync
// reconstructions and its session applies answer 429 quota_exceeded,
// another tenant is admitted, and once the held job reads terminal after
// a cancel, the tenant's next request is admitted on its first try. With
// a limit of 2 and one worker, a queued job cancelled before it starts
// frees its slot.
func TestServerTenantJobQuota(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	post := func(t *testing.T, base, path, tenant string, req any) *http.Response {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return doTenant(t, http.MethodPost, base+path, tenant, body)
	}
	async := true
	asyncReq := ReconstructRequest{Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 1}, Async: &async}
	syncReq := ReconstructRequest{Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 2}}
	acceptedJob := func(t *testing.T, resp *http.Response) JobInfo {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async reconstruct = %d, want 202", resp.StatusCode)
		}
		var info JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	wait := func(t *testing.T, c *Client, id string) JobInfo {
		t.Helper()
		waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		info, err := c.WaitJob(waitCtx, id, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}

	t.Run("held", func(t *testing.T) {
		var armed atomic.Bool
		started := make(chan struct{})
		hook, release := holdFirstReconstruction(&armed, started)
		_, c := newTestServer(t, func(cfg *Config) {
			cfg.TenantMaxJobs = 1
			cfg.testProgressHook = hook
		})
		t.Cleanup(release) // runs before the server's drain
		trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})
		alice := NewClient(c.Base)
		alice.Tenant = "alice"
		sess, err := alice.CreateSession(ctx, SessionRequest{Model: "m", Graph: graphText(t, tgt)})
		if err != nil {
			t.Fatal(err)
		}

		armed.Store(true)
		held := acceptedJob(t, post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))
		<-started
		wantQuotaRejection(t, "second async reconstruct", post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))
		wantQuotaRejection(t, "sync reconstruct", post(t, c.Base, "/v1/reconstruct", "alice", syncReq))
		wantQuotaRejection(t, "session apply", post(t, c.Base, "/v1/sessions/"+sess.ID+"/apply", "alice", SessionApplyRequest{}))
		other := post(t, c.Base, "/v1/reconstruct", "bob", syncReq)
		other.Body.Close()
		if other.StatusCode != http.StatusOK {
			t.Fatalf("bob held back by alice's quota: %d", other.StatusCode)
		}

		if _, err := alice.CancelJob(ctx, held.ID); err != nil {
			t.Fatal(err)
		}
		release()
		if info := wait(t, alice, held.ID); !info.Status.Terminal() {
			t.Fatalf("held job = %q", info.Status)
		}
		next := post(t, c.Base, "/v1/reconstruct", "alice", syncReq)
		next.Body.Close()
		if next.StatusCode != http.StatusOK {
			t.Fatalf("alice's first request after her job finished = %d, want 200", next.StatusCode)
		}
	})

	t.Run("queued cancel frees its slot", func(t *testing.T) {
		var armed atomic.Bool
		started := make(chan struct{})
		hook, release := holdFirstReconstruction(&armed, started)
		_, c := newTestServer(t, func(cfg *Config) {
			cfg.Workers = 1
			cfg.TenantMaxJobs = 2
			cfg.testProgressHook = hook
		})
		t.Cleanup(release) // runs before the server's drain
		trainOn(t, c, src, "m", OptionSpec{Seed: 1, Epochs: 5})
		armed.Store(true)
		running := acceptedJob(t, post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))
		<-started
		queued := acceptedJob(t, post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))
		wantQuotaRejection(t, "third job", post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))

		info, err := c.CancelJob(ctx, queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusCancelled {
			t.Fatalf("queued job after cancel = %q, want cancelled", info.Status)
		}
		last := acceptedJob(t, post(t, c.Base, "/v1/reconstruct", "alice", asyncReq))
		release()
		for _, id := range []string{running.ID, last.ID} {
			if info := wait(t, c, id); info.Status != StatusSucceeded {
				t.Fatalf("job %s = %q: %s", id, info.Status, info.Error)
			}
		}
	})
}

// TestServerTenantQueuedBytesQuota: TenantMaxQueuedBytes rejects a
// request whose payload alone exceeds the tenant's byte quota, before
// anything is queued — and the client never auto-retries a throttled
// POST, so the server sees the submission exactly once.
func TestServerTenantQueuedBytesQuota(t *testing.T) {
	ctx := context.Background()
	src := testSource(t)
	_, c := newTestServer(t, func(cfg *Config) { cfg.TenantMaxQueuedBytes = 16 })

	_, err := c.Train(ctx, TrainRequest{Source: hypergraphText(t, src), SaveAs: "m"})
	var aerr *APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("over-quota train error is not an *APIError: %v", err)
	}
	if aerr.Status != http.StatusTooManyRequests || aerr.Code != CodeQuotaExceeded {
		t.Fatalf("over-quota train = %+v, want 429 %s", aerr, CodeQuotaExceeded)
	}

	text := metricsText(t, c.Base)
	if !strings.Contains(text, `marioh_requests_total{route="POST /v1/train"} 1`) {
		t.Fatalf("throttled POST was reissued (want exactly 1 attempt):\n%s", text)
	}
	if !strings.Contains(text, `marioh_admission_rejected_total{reason="queued_bytes"} 1`) {
		t.Fatalf("metrics miss the queued-bytes rejection:\n%s", text)
	}
}

// TestServerDedupSingleflight is the dedup acceptance test: many
// concurrent identical synchronous reconstructions collapse into exactly
// one computation, every caller gets byte-identical bodies, and the
// bytes equal the serial library run. A follow-up request is served from
// the content-addressed cache without recomputing.
func TestServerDedupSingleflight(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)

	// Gate the leader's computation on a channel so every concurrent
	// request provably arrives while the flight is open.
	var gateOn atomic.Bool
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, c := newTestServer(t, func(cfg *Config) {
		cfg.testProgressHook = func(marioh.Progress) {
			if !gateOn.Load() {
				return
			}
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
		}
	})
	trainOn(t, c, src, "m", OptionSpec{Seed: 3, Epochs: 6})

	// Serial golden through the library, from the same wire-form inputs.
	canonSrc, err := parseHypergraph(hypergraphText(t, src))
	if err != nil {
		t.Fatal(err)
	}
	canonTgt, err := parseGraph(graphText(t, tgt))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := marioh.New(marioh.WithSeed(3), marioh.WithEpochs(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Train(ctx, canonSrc.Project(), canonSrc); err != nil {
		t.Fatal(err)
	}
	golden, err := lib.Reconstruct(ctx, canonTgt)
	if err != nil {
		t.Fatal(err)
	}
	goldenText := hypergraphText(t, golden.Hypergraph)

	payload, err := json.Marshal(ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	const concurrent = 10
	gateOn.Store(true)
	bodies := make([][]byte, concurrent)
	statuses := make([]int, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := doTenant(t, http.MethodPost, c.Base+"/v1/reconstruct", "", payload)
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i] = raw
		}(i)
	}

	// The leader is mid-computation; wait for the other nine to join its
	// flight, then let it finish.
	<-started
	deadline := time.Now().Add(30 * time.Second)
	for s.dedup.Stats().Waiters < concurrent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined the flight", s.dedup.Stats().Waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	gateOn.Store(false)

	for i := 0; i < concurrent; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var resp ReconstructResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Hypergraph != goldenText {
		t.Fatalf("deduped reconstruction diverges from the serial library run:\n%s\nvs\n%s",
			resp.Result.Hypergraph, goldenText)
	}

	// Exactly one reconstruction executed for the ten requests.
	recJobs := 0
	for _, job := range s.queue.Jobs() {
		if job.Kind == JobReconstruct {
			recJobs++
		}
	}
	if recJobs != 1 {
		t.Fatalf("%d reconstruct jobs ran for %d identical requests, want 1", recJobs, concurrent)
	}
	st := s.dedup.Stats()
	if st.Misses != 1 || st.Hits != concurrent-1 || st.Waiters != concurrent-1 {
		t.Fatalf("dedup stats = %+v, want 1 miss, %d hits/waiters", st, concurrent-1)
	}

	// A later identical request hits the retained entry: same bytes, no
	// new computation, no new job.
	late := doTenant(t, http.MethodPost, c.Base+"/v1/reconstruct", "", payload)
	raw, err := io.ReadAll(late.Body)
	late.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if late.StatusCode != http.StatusOK || !bytes.Equal(raw, bodies[0]) {
		t.Fatalf("cached request = %d, body differs from the flight's", late.StatusCode)
	}
	st = s.dedup.Stats()
	if st.Misses != 1 || st.Hits != concurrent || st.Entries != 1 {
		t.Fatalf("dedup stats after cache hit = %+v", st)
	}

	// A request with different options is a different content address.
	other, _, err := c.Reconstruct(ctx, ReconstructRequest{
		Model: "m", Target: graphText(t, tgt), Options: OptionSpec{Seed: 3, Parallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.Result.Hypergraph != goldenText {
		t.Fatal("a parallelism-1 run's hypergraph must still match the default run's bytes")
	}
	if got := s.dedup.Stats().Misses; got != 2 {
		t.Fatalf("distinct options shared a cache entry (misses = %d, want 2)", got)
	}

	text := metricsText(t, c.Base)
	for _, want := range []string{
		"marioh_dedup_hits_total 10",
		"marioh_dedup_misses_total 2",
		"marioh_dedup_waiters_total 9",
		"marioh_dedup_entries 2",
		`marioh_memory_bytes{pool="dedup"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics miss %q:\n%s", want, text)
		}
	}
}

// TestServerMemoryBudgetParksSessions: a tiny MemoryBudget forces
// cost-based shedding — opening a second durable session parks the idle
// first one to disk, and touching the parked one rehydrates it (parking
// the other), so the daemon's resident engines stay within budget.
func TestServerMemoryBudgetParksSessions(t *testing.T) {
	ctx := context.Background()
	src, tgt := testSource(t), testTarget(t)
	s, c := newTestServer(t, func(cfg *Config) {
		cfg.DataDir = t.TempDir()
		cfg.MemoryBudget = 1 // any loaded engine overflows it
	})
	// Push a library-trained model: with a 1-byte budget a train job's
	// retained result would be shed from the inspectable history before a
	// polling client could observe the terminal status.
	lib, err := marioh.New(marioh.WithSeed(1), marioh.WithEpochs(5))
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
	if _, err := c.PushModel(ctx, "m", raw.Bytes()); err != nil {
		t.Fatal(err)
	}

	req := SessionRequest{Model: "m", Graph: graphText(t, tgt), Options: OptionSpec{Seed: 1}}
	a, err := c.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	infoA, err := c.Session(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := c.Session(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !infoA.Parked || infoB.Parked {
		t.Fatalf("want A parked and B loaded under budget pressure, got A.parked=%v B.parked=%v",
			infoA.Parked, infoB.Parked)
	}
	var sessionsPool int64
	for _, p := range s.budget.Snapshot() {
		if p.Pool == budgetPoolSessions {
			sessionsPool = p.Bytes
		}
	}
	if want := sessionCost(marioh.SessionStats{
		Nodes: infoB.Nodes, Edges: infoB.Edges, Components: infoB.Components,
	}); sessionsPool > want {
		t.Fatalf("sessions pool charges %d bytes with one loaded engine (one engine costs %d)", sessionsPool, want)
	}

	// Applying to the parked session rehydrates it for the apply's
	// duration; once the apply releases, the enforcement parks every idle
	// engine again — nothing fits a 1-byte budget.
	resp, _, err := c.ApplySession(ctx, a.ID, SessionApplyRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Session.Applies != 1 || resp.Result.Hypergraph == "" {
		t.Fatalf("apply on rehydrated session = %+v", resp.Session)
	}
	infoA, err = c.Session(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err = c.Session(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !infoA.Parked || !infoB.Parked {
		t.Fatalf("want both sessions parked back under budget, got A.parked=%v B.parked=%v",
			infoA.Parked, infoB.Parked)
	}
	if infoA.Applies != 1 {
		t.Fatalf("parked session lost its applied state: %+v", infoA)
	}

	text := metricsText(t, c.Base)
	for _, want := range []string{
		"marioh_memory_budget_bytes 1",
		`marioh_session_evicted_total{persisted="true"}`,
		`marioh_memory_bytes{pool="sessions"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics miss %q:\n%s", want, text)
		}
	}
}

// throttleHandler answers 429 (unified envelope, small retry_after_s)
// for the first fail requests, then delegates.
type throttleHandler struct {
	fail  int32
	seen  int32
	inner http.Handler
}

func (h *throttleHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := atomic.AddInt32(&h.seen, 1)
	if n <= atomic.LoadInt32(&h.fail) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":{"code":"rate_limited","message":"slow down","retry_after_s":0.001}}`)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestClientRetries429Idempotent: a throttled GET is retried after the
// server-advised delay and succeeds.
func TestClientRetries429Idempotent(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := &throttleHandler{fail: 2, inner: s.Handler()}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.RetryBackoff = time.Millisecond
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("GET after transient 429s: %v", err)
	}
	if got := atomic.LoadInt32(&h.seen); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 throttles + 1 success)", got)
	}
}

// TestClientNoRetry429POST: a throttled POST is never reissued — the
// quota another caller is waiting on must not be re-spent — and the
// caller gets the typed rejection to act on.
func TestClientNoRetry429POST(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := &throttleHandler{fail: 1, inner: s.Handler()}
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewClient(ts.URL)
	c.RetryBackoff = time.Millisecond
	_, err := c.Train(context.Background(), TrainRequest{Source: hypergraphText(t, testSource(t))})
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Status != http.StatusTooManyRequests || aerr.Code != CodeRateLimited {
		t.Fatalf("throttled POST error = %v, want a typed 429 rate_limited", err)
	}
	if aerr.RetryAfter != time.Millisecond {
		t.Fatalf("RetryAfter = %s, want 1ms from retry_after_s", aerr.RetryAfter)
	}
	if got := atomic.LoadInt32(&h.seen); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (a 429 POST must not be retried)", got)
	}
}

// admissionErrorReasons pins the reason constants the metrics labels and
// operator dashboards key on.
func TestAdmissionErrorSurface(t *testing.T) {
	err := &admission.Error{Tenant: "alice", Reason: admission.ReasonJobs, Limit: 2, RetryAfter: time.Second}
	if errStatus(err) != http.StatusTooManyRequests {
		t.Fatalf("admission error status = %d", errStatus(err))
	}
	if code := errCode(http.StatusTooManyRequests, err); code != CodeQuotaExceeded {
		t.Fatalf("jobs quota code = %q, want %q", code, CodeQuotaExceeded)
	}
	rateErr := &admission.Error{Tenant: "alice", Reason: admission.ReasonRate, RetryAfter: time.Second}
	if code := errCode(http.StatusTooManyRequests, rateErr); code != CodeRateLimited {
		t.Fatalf("rate code = %q, want %q", code, CodeRateLimited)
	}
	if got := retryAfterHeader(200 * time.Millisecond); got != "1" {
		t.Fatalf("retryAfterHeader(200ms) = %q, want rounded up to 1", got)
	}
}
