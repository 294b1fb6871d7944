package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"marioh"
	"marioh/internal/admission"
)

// Config are mariohd's knobs; the zero value serves on :8080 with
// GOMAXPROCS workers, a 64-job queue, an 8-model cache and a memory-only
// registry.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// Workers is the job worker-pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the pending-job buffer; submissions beyond it get
	// 503. Default 64.
	QueueDepth int
	// JobHistory bounds how many finished jobs (with results and event
	// buffers) stay inspectable through the jobs endpoints; the oldest
	// terminal jobs are evicted past it. Default 256.
	JobHistory int
	// ModelsDir persists the model registry; empty keeps models in memory.
	ModelsDir string
	// ModelCache is the decoded-model LRU size. Default 8.
	ModelCache int
	// SyncEdgeLimit is the largest target graph (in edges) POST
	// /v1/reconstruct runs synchronously; bigger targets are queued as
	// jobs. Default 20000.
	SyncEdgeLimit int
	// SessionLimit bounds how many incremental reconstruction sessions
	// stay open; opening one beyond it evicts the least-recently-used
	// session (parked to disk when DataDir is set, dropped otherwise).
	// Default 16.
	SessionLimit int
	// DataDir makes sessions durable: each session write-ahead-logs its
	// delta batches and snapshots its engine under DataDir/sessions/<id>,
	// surviving daemon restarts and crashes. Empty keeps sessions in
	// memory only.
	DataDir string
	// WALNoFsync skips fsync on session WAL appends and snapshot renames:
	// sessions still survive a process kill but a power loss may drop
	// acknowledged batches.
	WALNoFsync bool
	// SnapshotEvery is the number of applies between session engine
	// snapshots; 0 means the library default (8).
	SnapshotEvery int
	// ShutdownTimeout bounds graceful shutdown: in-flight jobs get this
	// long to drain before their contexts are cancelled. Default 30s.
	ShutdownTimeout time.Duration
	// Logf receives server logs. Default log.Printf.
	Logf func(format string, args ...any)

	// TenantRate / TenantBurst rate-limit each tenant's /v1 requests with
	// a token bucket (requests per second and bucket size); 0 disables.
	// Tenants identify themselves with the X-Marioh-Tenant header
	// ("default" when absent).
	TenantRate  float64
	TenantBurst int
	// TenantMaxJobs / TenantMaxSessions / TenantMaxQueuedBytes bound each
	// tenant's concurrent jobs (queued + running, including synchronous
	// reconstructions), open sessions, and total queued request-body
	// bytes; 0 disables. Over-quota requests answer 429 + Retry-After
	// without queueing.
	TenantMaxJobs        int
	TenantMaxSessions    int
	TenantMaxQueuedBytes int64
	// MemoryBudget caps the bytes the daemon retains across session
	// engines, decoded registry models, kept job results and the dedup
	// cache (estimates, not allocator truth). Past it the server sheds
	// cost-based: dedup entries first, then retained job results, then
	// idle sessions (durable ones park to disk). 0 = unlimited.
	MemoryBudget int64
	// DedupCacheBytes bounds the content-addressed reconstruction result
	// cache. Identical (graph fingerprint, model hash, options) sync
	// reconstructions collapse into one computation regardless; the cache
	// additionally serves repeat requests without recomputing. 0 means
	// the default (64 MiB); negative disables retention.
	DedupCacheBytes int64

	// testProgressHook, when set (by tests), observes every progress event
	// before it is published, letting tests block a reconstruction at a
	// deterministic point.
	testProgressHook marioh.ProgressFunc
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.ModelCache <= 0 {
		c.ModelCache = 8
	}
	if c.SyncEdgeLimit <= 0 {
		c.SyncEdgeLimit = 20000
	}
	if c.SessionLimit <= 0 {
		c.SessionLimit = 16
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.DedupCacheBytes == 0 {
		c.DedupCacheBytes = 64 << 20
	}
}

// Server is the mariohd HTTP service: a router over the job queue, the
// model registry and the metrics registry.
type Server struct {
	cfg       Config
	base      context.Context // lifetime context captured by New; bounds the queue root, request contexts and the drain deadline
	queue     *Queue
	registry  *Registry
	metrics   *Metrics
	sessions  *sessionStore
	admission *admission.Controller
	budget    *admission.Budget
	dedup     *admission.Cache
	mux       *http.ServeMux
	start     time.Time

	addrOnce  sync.Once
	addrReady chan struct{} // closed once addr is final (bound or failed)
	addr      string        // bound address; "" if listening failed
}

// New builds a Server (and its queue workers) from cfg. ctx is the
// server's lifetime: cancelling it hard-stops every queued and running
// job and every in-flight request — it must outlive graceful shutdown,
// so pass the process context, not the signal context that triggers the
// drain (Serve takes that one). The queue lives until Serve returns; a
// Server is single-use.
func New(ctx context.Context, cfg Config) (*Server, error) {
	cfg.defaults()
	budget := admission.NewBudget(cfg.MemoryBudget)
	reg, err := NewRegistry(cfg.ModelsDir, cfg.ModelCache)
	if err != nil {
		return nil, err
	}
	reg.budget = budget
	s := &Server{
		cfg:      cfg,
		base:     ctx,
		queue:    NewQueue(ctx, cfg.Workers, cfg.QueueDepth, cfg.JobHistory),
		registry: reg,
		metrics:  NewMetrics(),
		sessions: newSessionStore(cfg.SessionLimit),
		admission: admission.NewController(admission.Limits{
			Rate:           cfg.TenantRate,
			Burst:          cfg.TenantBurst,
			MaxJobs:        cfg.TenantMaxJobs,
			MaxSessions:    cfg.TenantMaxSessions,
			MaxQueuedBytes: cfg.TenantMaxQueuedBytes,
		}),
		budget:    budget,
		dedup:     admission.NewCache(ctx, cfg.DedupCacheBytes, budget),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		addrReady: make(chan struct{}),
	}
	s.queue.budget = budget
	s.queue.onEvict = s.metrics.ResultEvicted
	s.queue.logf = cfg.Logf
	s.sessions.budget = budget
	if cfg.DataDir != "" {
		s.loadParkedSessions()
	}
	s.routes()
	return s, nil
}

// routes wires every endpoint through the metrics middleware; /v1
// endpoints additionally pass tenant admission (health and metrics stay
// un-throttled so probes and scrapes survive a flood).
func (s *Server) routes() {
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(pattern, s.admit(h)))
	}
	handle("POST /v1/train", s.handleTrain)
	handle("POST /v1/reconstruct", s.handleReconstruct)
	handle("POST /v1/reconstruct/batch", s.handleBatch)
	handle("GET /v1/jobs", s.handleJobs)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	handle("POST /v1/sessions", s.handleSessionCreate)
	handle("GET /v1/sessions", s.handleSessions)
	handle("GET /v1/sessions/{id}", s.handleSessionGet)
	handle("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	handle("POST /v1/sessions/{id}/apply", s.handleSessionApply)
	handle("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	handle("GET /v1/models", s.handleModels)
	handle("GET /v1/models/{name}", s.handleModelGet)
	handle("PUT /v1/models/{name}", s.handleModelPut)
	handle("DELETE /v1/models/{name}", s.handleModelDelete)
	s.mux.Handle("GET /healthz", s.instrument("GET /healthz", s.handleHealth))
	s.mux.Handle("GET /metrics", s.instrument("GET /metrics", s.handleMetrics))
}

// TenantHeader is the HTTP header carrying the caller's tenant identity;
// absent means admission.DefaultTenant.
const TenantHeader = "X-Marioh-Tenant"

// tenantKey is the request-context key carrying the admitted tenant.
type tenantKey struct{}

// tenantFrom returns the tenant the admission middleware attributed to
// the request.
func tenantFrom(r *http.Request) string {
	if t, ok := r.Context().Value(tenantKey{}).(string); ok {
		return t
	}
	return admission.DefaultTenant
}

// admit identifies the request's tenant and spends one of its rate
// tokens; over-rate requests answer 429 + Retry-After here, before any
// body is read or work queued.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get(TenantHeader)
		if tenant == "" {
			tenant = admission.DefaultTenant
		}
		if !admission.ValidTenant(tenant) {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid %s header %q", TenantHeader, tenant))
			return
		}
		if err := s.admission.AllowRequest(tenant); err != nil {
			s.reject(w, err)
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tenant)))
	}
}

// reject counts an admission rejection by reason and writes it (429 +
// Retry-After through the usual envelope path).
func (s *Server) reject(w http.ResponseWriter, err error) {
	var aerr *admission.Error
	if errors.As(err, &aerr) {
		s.metrics.AdmissionRejected(aerr.Reason)
	}
	s.writeError(w, errStatus(err), err)
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// flushStatusWriter adds Flush forwarding for underlying writers that
// support it; statusWriter deliberately does NOT implement http.Flusher,
// so the SSE handler's streaming-support check sees the truth about the
// wrapped writer.
type flushStatusWriter struct {
	*statusWriter
	flusher http.Flusher
}

func (w *flushStatusWriter) Flush() { w.flusher.Flush() }

// instrument wraps a handler with panic recovery, in-flight tracking and
// per-route request/status counting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		var rw http.ResponseWriter = sw
		if f, ok := w.(http.Flusher); ok {
			rw = &flushStatusWriter{statusWriter: sw, flusher: f}
		}
		s.metrics.InflightAdd(1)
		defer func() {
			s.metrics.InflightAdd(-1)
			if p := recover(); p != nil {
				s.cfg.Logf("mariohd: panic serving %s: %v", route, p)
				if sw.status == 0 {
					s.writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			s.metrics.Request(route, sw.status)
		}()
		h(rw, r)
	})
}

// Handler returns the routed handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON writes a JSON response body with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logf("mariohd: encoding response: %v", err)
	}
}

// writeError writes the unified JSON error envelope
// {"error":{"code","message","retry_after_s?"}}. Admission rejections
// additionally carry a Retry-After header.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Code: errCode(status, err), Message: err.Error()}
	if ra := retryAfter(err); ra > 0 {
		body.RetryAfterS = ra.Seconds()
		w.Header().Set("Retry-After", retryAfterHeader(ra))
	}
	s.writeJSON(w, status, errorEnvelope{Error: body})
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled, then
// shuts down gracefully: the listener closes, in-flight requests and every
// accepted job drain (bounded by ShutdownTimeout), and a clean drain
// returns nil.
func (s *Server) ListenAndServe(ctx context.Context) error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.setAddr("") // unblock Addr() so embedders see the failure
		return err
	}
	return s.Serve(ctx, l)
}

// setAddr publishes the final listen address exactly once.
func (s *Server) setAddr(addr string) {
	s.addrOnce.Do(func() {
		s.addr = addr
		close(s.addrReady)
	})
}

// Addr returns the bound address once it is known (blocking until then),
// so callers binding port 0 can discover the port. It returns "" if the
// listener failed to bind; repeated calls return the same value.
func (s *Server) Addr() string {
	<-s.addrReady
	return s.addr
}

// Serve serves on l until ctx is cancelled, then drains gracefully.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	addr := l.Addr().String()
	s.setAddr(addr)
	s.cfg.Logf("mariohd %s listening on %s", marioh.Version, addr)

	httpSrv := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.base },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(l) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// The drain deadline derives from the lifetime context, not the
	// (already cancelled) signal context that requested the shutdown:
	// in-flight work gets the full timeout unless the process itself is
	// being torn down.
	s.cfg.Logf("mariohd: shutdown requested, draining (timeout %s)", s.cfg.ShutdownTimeout)
	drainCtx, cancel := context.WithTimeout(s.base, s.cfg.ShutdownTimeout)
	defer cancel()

	// Stop accepting requests and wait for in-flight ones (this includes
	// synchronous reconstructions and SSE streams of running jobs).
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		s.cfg.Logf("mariohd: http shutdown: %v", err)
	}
	// Then drain the queued/running async jobs.
	if err := s.queue.Drain(drainCtx); err != nil {
		s.cfg.Logf("mariohd: queue drain aborted: %v", err)
		if n := s.parkSessions(); n > 0 {
			s.cfg.Logf("mariohd: parked %d durable session(s)", n)
		}
		return fmt.Errorf("server: drain: %w", err)
	}
	// Park durable sessions last (their final snapshots make the next
	// start a zero-replay resume).
	if n := s.parkSessions(); n > 0 {
		s.cfg.Logf("mariohd: parked %d durable session(s)", n)
	}
	counts := s.queue.Counts()
	s.cfg.Logf("mariohd: drained cleanly (%d succeeded, %d failed, %d cancelled), exiting",
		counts[StatusSucceeded], counts[StatusFailed], counts[StatusCancelled])
	return nil
}
