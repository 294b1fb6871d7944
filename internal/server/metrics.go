package server

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"marioh/internal/admission"
)

// Metrics aggregates the counters behind GET /metrics: per-route request
// and status counts, in-flight requests, job outcomes, and per-stage
// latency totals. Everything is exported in the Prometheus text format,
// hand-rolled so the server stays dependency-free.
type Metrics struct {
	mu       sync.Mutex
	start    time.Time
	requests map[string]int64      // guarded by mu; route → count
	statuses map[int]int64         // guarded by mu; HTTP status → count
	inflight int64                 // guarded by mu
	jobs     map[string]int64      // guarded by mu; submitted/succeeded/failed/cancelled
	stages   map[string]*stageStat // guarded by mu

	sessionsCreated int64 // guarded by mu; incremental sessions opened
	sessionsEvicted int64 // guarded by mu; sessions dropped by the LRU bound
	sessionApplies  int64 // guarded by mu; delta batches served by sessions
	sessionDirty    int64 // guarded by mu; components recomputed across those applies
	sessionReused   int64 // guarded by mu; components merged from the session cache instead

	evictedPersisted int64 // guarded by mu; LRU evictions that parked durable state to disk
	evictedDropped   int64 // guarded by mu; LRU evictions that discarded a memory-only session

	walAppends     int64            // guarded by mu; WAL records appended across durable sessions
	walBytes       int64            // guarded by mu; framed WAL bytes appended
	snapshotWrites int64            // guarded by mu; engine snapshots written
	recoveries     map[string]int64 // guarded by mu; recovery outcome → count
	recoveryReplay int64            // guarded by mu; WAL records replayed across recoveries

	admissionRejected map[string]int64 // guarded by mu; rejection reason → count
	resultsEvicted    int64            // guarded by mu; retained job results shed by the memory budget
}

// stageStat accumulates wall-clock spent in one pipeline stage.
type stageStat struct {
	count int64
	total time.Duration
	max   time.Duration
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:             time.Now(),
		requests:          map[string]int64{},
		statuses:          map[int]int64{},
		jobs:              map[string]int64{},
		stages:            map[string]*stageStat{},
		recoveries:        map[string]int64{},
		admissionRejected: map[string]int64{},
	}
}

// AdmissionRejected records one request or acquisition refused by the
// admission controller, by rejection reason.
func (m *Metrics) AdmissionRejected(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admissionRejected[reason]++
}

// ResultEvicted records one retained job result shed by the memory
// budget.
func (m *Metrics) ResultEvicted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resultsEvicted++
}

// Request records one served request on a route with its response status.
func (m *Metrics) Request(route string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[route]++
	m.statuses[status]++
}

// InflightAdd tracks requests currently being served (delta ±1).
func (m *Metrics) InflightAdd(delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight += delta
}

// Job records a job lifecycle event ("submitted", or a terminal status).
func (m *Metrics) Job(event string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[event]++
}

// SessionOpen records one opened session.
func (m *Metrics) SessionOpen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsCreated++
}

// SessionEvicted records one LRU eviction; persisted says whether the
// session's state was parked to disk (durable) or discarded.
func (m *Metrics) SessionEvicted(persisted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsEvicted++
	if persisted {
		m.evictedPersisted++
	} else {
		m.evictedDropped++
	}
}

// Durability accumulates WAL and snapshot activity harvested from the
// durable sessions' own counters.
func (m *Metrics) Durability(walRecords, walBytes, snapshots int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.walAppends += walRecords
	m.walBytes += walBytes
	m.snapshotWrites += snapshots
}

// Recovery records one durable-session recovery and its replay length.
func (m *Metrics) Recovery(outcome string, replayed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if outcome == "" {
		outcome = "clean"
	}
	m.recoveries[outcome]++
	m.recoveryReplay += int64(replayed)
}

// SessionApply records one served delta batch: dirty components were
// recomputed, reused ones merged from the session cache.
func (m *Metrics) SessionApply(dirty, reused int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionApplies++
	m.sessionDirty += int64(dirty)
	m.sessionReused += int64(reused)
}

// Stage records time spent in a named pipeline stage (train_sample,
// train_optimize, filter, search).
func (m *Metrics) Stage(name string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.stages[name]
	if !ok {
		s = &stageStat{}
		m.stages[name] = s
	}
	s.count++
	s.total += d
	if d > s.max {
		s.max = d
	}
}

// MetricsSnapshot carries the live gauges the caller samples at scrape
// time from the queue, session store, admission controller, dedup cache
// and memory budget.
type MetricsSnapshot struct {
	QueueDepth     int
	JobCounts      map[JobStatus]int
	OpenSessions   int
	ParkedSessions int
	ActiveTenants  int
	Dedup          admission.CacheStats
	BudgetPools    []admission.PoolBytes
	BudgetTotal    int64
	RSSBytes       int64
}

// Render writes the Prometheus text exposition; snap carries the live
// gauges sampled by the caller.
func (m *Metrics) Render(w io.Writer, snap MetricsSnapshot) {
	queueDepth := snap.QueueDepth
	jobCounts := snap.JobCounts
	openSessions, parkedSessions := snap.OpenSessions, snap.ParkedSessions
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE marioh_uptime_seconds gauge\n")
	fmt.Fprintf(w, "marioh_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# TYPE marioh_requests_total counter\n")
	for _, route := range sortedKeys(m.requests) {
		fmt.Fprintf(w, "marioh_requests_total{route=%q} %d\n", route, m.requests[route])
	}
	fmt.Fprintf(w, "# TYPE marioh_responses_total counter\n")
	statuses := make([]int, 0, len(m.statuses))
	for s := range m.statuses {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		fmt.Fprintf(w, "marioh_responses_total{status=\"%d\"} %d\n", s, m.statuses[s])
	}
	fmt.Fprintf(w, "# TYPE marioh_requests_inflight gauge\n")
	fmt.Fprintf(w, "marioh_requests_inflight %d\n", m.inflight)

	fmt.Fprintf(w, "# TYPE marioh_queue_depth gauge\n")
	fmt.Fprintf(w, "marioh_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# TYPE marioh_jobs gauge\n")
	for _, st := range []JobStatus{StatusQueued, StatusRunning, StatusSucceeded, StatusFailed, StatusCancelled} {
		fmt.Fprintf(w, "marioh_jobs{status=%q} %d\n", st, jobCounts[st])
	}
	fmt.Fprintf(w, "# TYPE marioh_job_events_total counter\n")
	for _, ev := range sortedKeys(m.jobs) {
		fmt.Fprintf(w, "marioh_job_events_total{event=%q} %d\n", ev, m.jobs[ev])
	}

	fmt.Fprintf(w, "# TYPE marioh_sessions_open gauge\n")
	fmt.Fprintf(w, "marioh_sessions_open %d\n", openSessions)
	fmt.Fprintf(w, "# TYPE marioh_session_created_total counter\n")
	fmt.Fprintf(w, "marioh_session_created_total %d\n", m.sessionsCreated)
	fmt.Fprintf(w, "# TYPE marioh_session_evictions_total counter\n")
	fmt.Fprintf(w, "marioh_session_evictions_total %d\n", m.sessionsEvicted)
	fmt.Fprintf(w, "# TYPE marioh_session_applies_total counter\n")
	fmt.Fprintf(w, "marioh_session_applies_total %d\n", m.sessionApplies)
	fmt.Fprintf(w, "# TYPE marioh_session_dirty_components_total counter\n")
	fmt.Fprintf(w, "marioh_session_dirty_components_total %d\n", m.sessionDirty)
	fmt.Fprintf(w, "# TYPE marioh_session_reused_components_total counter\n")
	fmt.Fprintf(w, "marioh_session_reused_components_total %d\n", m.sessionReused)
	fmt.Fprintf(w, "# TYPE marioh_session_evicted_total counter\n")
	fmt.Fprintf(w, "marioh_session_evicted_total{persisted=\"false\"} %d\n", m.evictedDropped)
	fmt.Fprintf(w, "marioh_session_evicted_total{persisted=\"true\"} %d\n", m.evictedPersisted)
	fmt.Fprintf(w, "# TYPE marioh_sessions_parked gauge\n")
	fmt.Fprintf(w, "marioh_sessions_parked %d\n", parkedSessions)

	fmt.Fprintf(w, "# TYPE marioh_wal_appends_total counter\n")
	fmt.Fprintf(w, "marioh_wal_appends_total %d\n", m.walAppends)
	fmt.Fprintf(w, "# TYPE marioh_wal_bytes_total counter\n")
	fmt.Fprintf(w, "marioh_wal_bytes_total %d\n", m.walBytes)
	fmt.Fprintf(w, "# TYPE marioh_snapshot_writes_total counter\n")
	fmt.Fprintf(w, "marioh_snapshot_writes_total %d\n", m.snapshotWrites)
	fmt.Fprintf(w, "# TYPE marioh_recovery_total counter\n")
	for _, outcome := range sortedKeys(m.recoveries) {
		fmt.Fprintf(w, "marioh_recovery_total{outcome=%q} %d\n", outcome, m.recoveries[outcome])
	}
	fmt.Fprintf(w, "# TYPE marioh_recovery_replayed_total counter\n")
	fmt.Fprintf(w, "marioh_recovery_replayed_total %d\n", m.recoveryReplay)

	fmt.Fprintf(w, "# TYPE marioh_admission_rejected_total counter\n")
	for _, reason := range sortedKeys(m.admissionRejected) {
		fmt.Fprintf(w, "marioh_admission_rejected_total{reason=%q} %d\n", reason, m.admissionRejected[reason])
	}
	fmt.Fprintf(w, "# TYPE marioh_tenants_active gauge\n")
	fmt.Fprintf(w, "marioh_tenants_active %d\n", snap.ActiveTenants)

	fmt.Fprintf(w, "# TYPE marioh_dedup_hits_total counter\n")
	fmt.Fprintf(w, "marioh_dedup_hits_total %d\n", snap.Dedup.Hits)
	fmt.Fprintf(w, "# TYPE marioh_dedup_misses_total counter\n")
	fmt.Fprintf(w, "marioh_dedup_misses_total %d\n", snap.Dedup.Misses)
	fmt.Fprintf(w, "# TYPE marioh_dedup_waiters_total counter\n")
	fmt.Fprintf(w, "marioh_dedup_waiters_total %d\n", snap.Dedup.Waiters)
	fmt.Fprintf(w, "# TYPE marioh_dedup_evictions_total counter\n")
	fmt.Fprintf(w, "marioh_dedup_evictions_total %d\n", snap.Dedup.Evictions)
	fmt.Fprintf(w, "# TYPE marioh_dedup_entries gauge\n")
	fmt.Fprintf(w, "marioh_dedup_entries %d\n", snap.Dedup.Entries)
	fmt.Fprintf(w, "# TYPE marioh_dedup_bytes gauge\n")
	fmt.Fprintf(w, "marioh_dedup_bytes %d\n", snap.Dedup.Bytes)

	fmt.Fprintf(w, "# TYPE marioh_memory_bytes gauge\n")
	for _, p := range snap.BudgetPools {
		fmt.Fprintf(w, "marioh_memory_bytes{pool=%q} %d\n", p.Pool, p.Bytes)
	}
	fmt.Fprintf(w, "# TYPE marioh_memory_budget_bytes gauge\n")
	fmt.Fprintf(w, "marioh_memory_budget_bytes %d\n", snap.BudgetTotal)
	fmt.Fprintf(w, "# TYPE marioh_results_evicted_total counter\n")
	fmt.Fprintf(w, "marioh_results_evicted_total %d\n", m.resultsEvicted)
	fmt.Fprintf(w, "# TYPE marioh_rss_bytes gauge\n")
	fmt.Fprintf(w, "marioh_rss_bytes %d\n", snap.RSSBytes)

	fmt.Fprintf(w, "# TYPE marioh_stage_seconds_total counter\n")
	for _, name := range sortedStageKeys(m.stages) {
		s := m.stages[name]
		fmt.Fprintf(w, "marioh_stage_seconds_total{stage=%q} %.6f\n", name, s.total.Seconds())
		fmt.Fprintf(w, "marioh_stage_runs_total{stage=%q} %d\n", name, s.count)
		fmt.Fprintf(w, "marioh_stage_seconds_max{stage=%q} %.6f\n", name, s.max.Seconds())
	}
}

// rssBytes samples the process resident set from /proc/self/statm
// (0 where the proc filesystem is unavailable).
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStageKeys(m map[string]*stageStat) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
