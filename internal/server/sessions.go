package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marioh"
	"marioh/internal/admission"
	"marioh/internal/durability"
)

// budgetPoolSessions is the memory-budget pool charged for loaded
// session engines.
const budgetPoolSessions = "sessions"

// JobSession is the job kind of an asynchronous session apply.
const JobSession JobKind = "session"

// ErrSessionBusy is returned when a session already has an apply in
// flight; handlers map it to 409 Conflict. Applies mutate the session
// graph in submission order, so overlapping batches from one client
// would interleave unpredictably — the server refuses them instead and
// the client retries (or waits on the in-flight job).
var ErrSessionBusy = errors.New("server: session has an apply in flight")

// ErrSeqMismatch is returned when an apply carries a seq guard that does
// not match the session's applies counter; handlers map it to 409.
// Because delta batches are not idempotent, the guard is how a client
// resumes after an ambiguous failure without double-applying.
var ErrSeqMismatch = errors.New("server: seq guard does not match the session's applies counter")

// sessionMetaName is the per-session metadata file a durable session
// directory carries alongside its WAL and snapshots.
const sessionMetaName = "meta.json"

// sessionMeta is the durable identity of a server session: everything
// needed to rebuild its Reconstructor after a restart, plus the last
// known stats so listings don't have to rehydrate the engine.
type sessionMeta struct {
	ID       string     `json:"id"`
	Model    string     `json:"model"`
	Tenant   string     `json:"tenant,omitempty"`
	Options  OptionSpec `json:"options"`
	Created  time.Time  `json:"created"`
	LastUsed time.Time  `json:"last_used"`

	Nodes      int `json:"nodes"`
	Edges      int `json:"edges"`
	Components int `json:"components"`
	Applies    int `json:"applies"`
	LastDirty  int `json:"last_dirty"`
}

// serverSession is one incremental reconstruction session hosted by the
// daemon: a marioh.Session plus bookkeeping for listings, LRU eviction
// and (when the daemon runs with a data dir) durable park/restore.
//
// Lock ordering: loadMu → sessionStore.mu → mu. loadMu serializes the
// load/park transitions (and is held across the whole restore, so only
// one goroutine rehydrates); mu guards the hot fields.
type serverSession struct {
	ID     string
	Model  string
	Tenant string            // owning tenant; its session quota slot is held until delete
	spec   OptionSpec        // options the session was created with (rebuilds the Reconstructor at restore)
	dir    string            // durable session directory; "" = memory-only
	budget *admission.Budget // copied from the store at Install/Register; nil = unmetered

	created time.Time

	// pub is the progress sink of the apply currently running (fanning
	// events into its job); the session's Reconstructor was configured
	// with a callback that forwards through it. Exclusive thanks to the
	// busy guard — at most one apply runs per session.
	pub atomic.Value // marioh.ProgressFunc

	loadMu sync.Mutex // serializes park/restore; see lock ordering above

	mu       sync.Mutex
	sess     *marioh.Session // guarded by mu (swapped under loadMu); nil = parked
	lastUsed time.Time       // guarded by mu
	lastJob  string          // guarded by mu
	busy     bool            // guarded by mu
	// stats is the last known snapshot (guarded by mu), refreshed after
	// every apply, so info() never blocks on the Session mutex behind a
	// running apply. For a parked session it carries the meta.json values.
	stats marioh.SessionStats
	// recovery/replayed describe the last restore of a durable session
	// (guarded by mu).
	recovery string
	replayed int
	// cost is the bytes currently charged to the sessions budget pool
	// (guarded by mu); removed pins it at zero so a late refresh from an
	// in-flight apply cannot re-charge a deleted session.
	cost    int64
	removed bool
	// WAL/snapshot counter baselines for metric deltas (guarded by mu).
	durWALRecords, durWALBytes, durSnapshots int64
}

// durable reports whether the session persists under a data dir.
func (ss *serverSession) durable() bool { return ss.dir != "" }

// loaded reports whether the session's engine is resident in memory.
func (ss *serverSession) loaded() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sess != nil
}

// acquire claims the session's single apply slot.
func (ss *serverSession) acquire() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.busy {
		return ErrSessionBusy
	}
	ss.busy = true
	return nil
}

// release frees the apply slot and refreshes the cached stats snapshot
// (and the session's budget charge — applies grow the graph).
func (ss *serverSession) release() {
	ss.mu.Lock()
	sess := ss.sess
	ss.mu.Unlock()
	var st marioh.SessionStats
	if sess != nil {
		st = sess.Stats()
	}
	ss.mu.Lock()
	if sess != nil {
		ss.stats = st
	}
	ss.busy = false
	ss.mu.Unlock()
	if sess != nil {
		ss.setCost(sessionCost(st))
	}
}

// sessionCost estimates the resident bytes of a loaded session engine
// from its stats: per-edge adjacency, per-node state, per-component
// cached reconstruction, plus fixed overhead. An estimate, not
// allocator truth — the budget trades exactness for zero instrumentation
// cost on the hot path.
func sessionCost(st marioh.SessionStats) int64 {
	return 96*int64(st.Edges) + 48*int64(st.Nodes) + 64*int64(st.Components) + 4096
}

// setCost settles the session's estimated memory cost against the
// budget's sessions pool (parked sessions carry zero).
func (ss *serverSession) setCost(n int64) {
	ss.mu.Lock()
	if ss.removed {
		n = 0
	}
	delta := n - ss.cost
	ss.cost = n
	ss.mu.Unlock()
	if delta != 0 && ss.budget != nil {
		ss.budget.Charge(budgetPoolSessions, delta)
	}
}

// drop marks the session removed and releases its budget charge; called
// when the session leaves the store for good (delete or memory-only
// eviction).
func (ss *serverSession) drop() {
	ss.mu.Lock()
	ss.removed = true
	ss.mu.Unlock()
	ss.setCost(0)
}

// publish forwards a progress event to the active apply's sink, if any.
func (ss *serverSession) publish(p marioh.Progress) {
	if fn, ok := ss.pub.Load().(marioh.ProgressFunc); ok && fn != nil {
		fn(p)
	}
}

// touch updates the LRU stamp and the last-apply job pointer.
func (ss *serverSession) touch(job string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastUsed = time.Now()
	if job != "" {
		ss.lastJob = job
	}
}

// info snapshots the session for the API from the cached stats — never
// from the live Session, whose mutex a running apply holds for its whole
// duration (listings must not hang behind a long build).
func (ss *serverSession) info() SessionInfo {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return SessionInfo{
		ID:         ss.ID,
		Model:      ss.Model,
		Tenant:     ss.Tenant,
		Nodes:      ss.stats.Nodes,
		Edges:      ss.stats.Edges,
		Components: ss.stats.Components,
		Applies:    ss.stats.Applies,
		LastDirty:  ss.stats.LastDirty,
		LastJob:    ss.lastJob,
		Created:    ss.created,
		LastUsed:   ss.lastUsed,
		Durable:    ss.durable(),
		Parked:     ss.sess == nil,
		Recovery:   ss.recovery,
		Replayed:   ss.replayed,
	}
}

// meta snapshots the session's durable metadata.
func (ss *serverSession) meta() sessionMeta {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return sessionMeta{
		ID:         ss.ID,
		Model:      ss.Model,
		Tenant:     ss.Tenant,
		Options:    ss.spec,
		Created:    ss.created,
		LastUsed:   ss.lastUsed,
		Nodes:      ss.stats.Nodes,
		Edges:      ss.stats.Edges,
		Components: ss.stats.Components,
		Applies:    ss.stats.Applies,
		LastDirty:  ss.stats.LastDirty,
	}
}

// writeMeta persists meta.json in the session directory with the
// registry's atomic-rename pattern.
func (ss *serverSession) writeMeta() error {
	m := ss.meta()
	return durability.WriteFileAtomic(filepath.Join(ss.dir, sessionMetaName), true, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// sessionStore owns the daemon's sessions with LRU eviction: opening a
// session beyond the limit evicts the least-recently-used loaded one —
// durable sessions are parked to disk (and rehydrate on next use),
// memory-only sessions are dropped — so a long-lived daemon's memory is
// bounded by limit live graphs + caches.
type sessionStore struct {
	// budget meters loaded engines; set once before traffic, handed to
	// each session at Install/Register. Nil = unmetered.
	budget *admission.Budget

	mu     sync.Mutex
	limit  int                       // immutable after newSessionStore
	nextID int                       // guarded by mu
	byID   map[string]*serverSession // guarded by mu
}

func newSessionStore(limit int) *sessionStore {
	if limit <= 0 {
		limit = 16
	}
	return &sessionStore{limit: limit, byID: map[string]*serverSession{}}
}

// Reserve allocates the next session id (so a durable session can name
// its directory before it is installed).
func (st *sessionStore) Reserve() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	return fmt.Sprintf("s-%06d", st.nextID)
}

// Install registers a session under its reserved id.
func (st *sessionStore) Install(ss *serverSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss.budget = st.budget
	st.byID[ss.ID] = ss
}

// Register adds a session recovered from disk at startup, keeping the id
// counter ahead of every recovered id.
func (st *sessionStore) Register(ss *serverSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int
	if _, err := fmt.Sscanf(ss.ID, "s-%d", &n); err == nil && n > st.nextID {
		st.nextID = n
	}
	ss.budget = st.budget
	st.byID[ss.ID] = ss
}

// Get looks a session up by id.
func (st *sessionStore) Get(id string) (*serverSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.byID[id]
	return ss, ok
}

// Remove unregisters a session; an in-flight apply keeps its own
// reference and finishes harmlessly.
func (st *sessionStore) Remove(id string) (*serverSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	delete(st.byID, id)
	return ss, true
}

// List returns every session in creation order (ids are zero-padded, so
// string order is creation order), matching the jobs listing convention.
func (st *sessionStore) List() []*serverSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*serverSession, 0, len(st.byID))
	for _, ss := range st.byID {
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns how many sessions are loaded in memory and how many are
// parked on disk.
func (st *sessionStore) Counts() (loaded, parked int) {
	st.mu.Lock()
	sessions := make([]*serverSession, 0, len(st.byID))
	for _, ss := range st.byID {
		sessions = append(sessions, ss)
	}
	st.mu.Unlock()
	for _, ss := range sessions {
		if ss.loaded() {
			loaded++
		} else {
			parked++
		}
	}
	return loaded, parked
}

// lruVictim picks the least-recently-used loaded, non-busy session not
// in skip. Without force it returns nil while the loaded count is
// within the limit; with force (memory-budget shedding) it returns a
// victim regardless of the count bound.
func (st *sessionStore) lruVictim(skip map[string]bool, force bool) *serverSession {
	st.mu.Lock()
	sessions := make([]*serverSession, 0, len(st.byID))
	for _, ss := range st.byID {
		sessions = append(sessions, ss)
	}
	st.mu.Unlock()

	loaded := 0
	var lru *serverSession
	var lruStamp time.Time
	for _, cand := range sessions {
		cand.mu.Lock()
		ok := cand.sess != nil
		busy := cand.busy
		stamp := cand.lastUsed
		cand.mu.Unlock()
		if !ok {
			continue
		}
		loaded++
		if busy || skip[cand.ID] {
			continue
		}
		if lru == nil || stamp.Before(lruStamp) {
			lru, lruStamp = cand, stamp
		}
	}
	if !force && loaded <= st.limit {
		return nil
	}
	return lru
}

// sessionsRoot is the directory durable sessions live under.
func (s *Server) sessionsRoot() string {
	return filepath.Join(s.cfg.DataDir, "sessions")
}

// durableOptions builds the library durability knobs from the server
// config.
func (s *Server) durableOptions(dir string) marioh.DurableOptions {
	return marioh.DurableOptions{
		Dir:           dir,
		NoFsync:       s.cfg.WALNoFsync,
		SnapshotEvery: s.cfg.SnapshotEvery,
		Logf:          s.cfg.Logf,
	}
}

// sessionReconstructor rebuilds the Reconstructor a session runs on from
// its recorded spec (shared by create and restore so a restored session
// reconstructs byte-identically).
func (s *Server) sessionReconstructor(ss *serverSession, m *marioh.Model) (*marioh.Reconstructor, error) {
	opts, err := ss.spec.Options()
	if err != nil {
		return nil, err
	}
	opts = append(opts, marioh.WithModel(m), marioh.WithProgress(ss.publish))
	return marioh.New(opts...)
}

// ensureLoaded rehydrates a parked durable session: resume from its
// snapshot+WAL, record the recovery outcome, then re-park something else
// if the load pushed memory over the limit. Loaded sessions return
// immediately. ctx bounds the restore (the caller's request context).
func (s *Server) ensureLoaded(ctx context.Context, ss *serverSession) (*marioh.Session, error) {
	ss.loadMu.Lock()
	defer ss.loadMu.Unlock()
	ss.mu.Lock()
	sess := ss.sess
	ss.mu.Unlock()
	if sess != nil {
		return sess, nil
	}
	if !ss.durable() {
		return nil, fmt.Errorf("server: session %s has no engine and no durable state", ss.ID)
	}
	m, err := s.registry.Get(ss.Model)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", ss.ID, err)
	}
	rec, err := s.sessionReconstructor(ss, m)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", ss.ID, err)
	}
	dopts := s.durableOptions(ss.dir)
	sess, err = rec.NewSession(ctx, marioh.SessionConfig{Durable: &dopts, Resume: true})
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", ss.ID, err)
	}
	st := sess.Stats()
	ss.mu.Lock()
	ss.sess = sess
	ss.stats = st
	ss.recovery = st.RecoveryOutcome
	ss.replayed = st.Replayed
	// Reset the metric baselines: the counters restart with the process.
	ss.durWALRecords, ss.durWALBytes, ss.durSnapshots = 0, 0, 0
	ss.mu.Unlock()
	ss.setCost(sessionCost(st))
	s.metrics.Recovery(st.RecoveryOutcome, st.Replayed)
	s.harvestDurability(ss, st)
	s.cfg.Logf("mariohd: session %s restored from %s (outcome %s, %d records replayed, %d applies)",
		ss.ID, ss.dir, st.RecoveryOutcome, st.Replayed, st.Applies)
	s.enforceLimit(ss.ID)
	s.enforceBudget(ss.ID)
	return sess, nil
}

// harvestDurability feeds the growth of a session's WAL/snapshot
// counters into the server metrics.
func (s *Server) harvestDurability(ss *serverSession, st marioh.SessionStats) {
	if !st.Durable {
		return
	}
	ss.mu.Lock()
	dr := st.WALRecords - ss.durWALRecords
	db := st.WALBytes - ss.durWALBytes
	dn := st.Snapshots - ss.durSnapshots
	ss.durWALRecords, ss.durWALBytes, ss.durSnapshots = st.WALRecords, st.WALBytes, st.Snapshots
	ss.mu.Unlock()
	s.metrics.Durability(dr, db, dn)
}

// park flushes a durable session to disk and releases its engine. The
// caller must NOT hold loadMu. Returns false when the session is busy,
// already parked, or its loadMu is contended (a concurrent restore).
func (s *Server) park(ss *serverSession) bool {
	if !ss.loadMu.TryLock() {
		return false
	}
	defer ss.loadMu.Unlock()
	ss.mu.Lock()
	if ss.busy || ss.sess == nil {
		ss.mu.Unlock()
		return false
	}
	sess := ss.sess
	ss.mu.Unlock()
	// Close writes the final snapshot; harvest afterwards so the metric
	// deltas include it.
	if err := sess.Close(); err != nil {
		s.cfg.Logf("mariohd: session %s: closing durable state: %v", ss.ID, err)
	}
	s.harvestDurability(ss, sess.Stats())
	ss.mu.Lock()
	ss.sess = nil
	ss.mu.Unlock()
	ss.setCost(0) // the engine is gone; only the on-disk state remains
	if err := ss.writeMeta(); err != nil {
		s.cfg.Logf("mariohd: session %s: writing meta: %v", ss.ID, err)
	}
	return true
}

// evictOne parks (durable) or drops (memory-only) one victim session.
// Returns false when the victim could not be parked — busy, or a
// restore holds its loadMu — in which case it was added to skip so the
// caller's next lruVictim pick moves on.
func (s *Server) evictOne(victim *serverSession, skip map[string]bool, why string) bool {
	persisted := false
	switch {
	case victim.durable():
		if !s.park(victim) {
			skip[victim.ID] = true
			return false
		}
		persisted = true
		s.cfg.Logf("mariohd: session %s parked to %s (%s)", victim.ID, victim.dir, why)
	default:
		if _, ok := s.sessions.Remove(victim.ID); ok {
			victim.drop()
			if victim.Tenant != "" {
				s.admission.ReleaseSession(victim.Tenant)
			}
		}
		s.cfg.Logf("mariohd: session %s evicted (%s)", victim.ID, why)
	}
	s.metrics.SessionEvicted(persisted)
	return true
}

// enforceLimit evicts loaded sessions past the count limit, least
// recently used first: durable sessions park to disk, memory-only ones
// are dropped. Busy sessions are never evicted; keep is the id to
// exempt (the session that triggered the enforcement).
func (s *Server) enforceLimit(keep string) {
	skip := map[string]bool{}
	if keep != "" {
		skip[keep] = true
	}
	for {
		victim := s.sessions.lruVictim(skip, false)
		if victim == nil {
			return
		}
		s.evictOne(victim, skip, fmt.Sprintf("LRU, limit %d", s.cfg.SessionLimit))
	}
}

// enforceBudget sheds retained memory while the global budget is over
// capacity, cheapest-to-rebuild first: dedup cache entries (pure
// recomputation), then retained job results (inspectable history), then
// idle sessions (durable ones park to disk and rehydrate on next use;
// memory-only ones are dropped for good). keep exempts the session that
// triggered the enforcement.
func (s *Server) enforceBudget(keep string) {
	over := s.budget.Over()
	if over <= 0 {
		return
	}
	s.dedup.ShrinkTo(s.dedup.Bytes() - over)
	if over = s.budget.Over(); over <= 0 {
		return
	}
	if freed := s.queue.ShedResults(over); freed > 0 {
		s.cfg.Logf("mariohd: memory budget: shed %d bytes of retained job results", freed)
	}
	skip := map[string]bool{}
	if keep != "" {
		skip[keep] = true
	}
	for s.budget.Over() > 0 {
		victim := s.sessions.lruVictim(skip, true)
		if victim == nil {
			return
		}
		s.evictOne(victim, skip, fmt.Sprintf("memory budget %d", s.cfg.MemoryBudget))
	}
}

// loadParkedSessions scans the data dir at startup and registers every
// durable session found there (parked; the engine rehydrates on first
// use).
func (s *Server) loadParkedSessions() {
	root := s.sessionsRoot()
	entries, err := os.ReadDir(root)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.cfg.Logf("mariohd: scanning %s: %v", root, err)
		}
		return
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		raw, err := os.ReadFile(filepath.Join(dir, sessionMetaName))
		if err != nil || !marioh.HasDurableSession(dir) {
			s.cfg.Logf("mariohd: %s: not a recoverable session, skipping", dir)
			continue
		}
		var m sessionMeta
		if err := json.Unmarshal(raw, &m); err != nil || m.ID == "" {
			s.cfg.Logf("mariohd: %s: unreadable meta.json, skipping: %v", dir, err)
			continue
		}
		tenant := m.Tenant
		if tenant == "" || !admission.ValidTenant(tenant) {
			tenant = admission.DefaultTenant
		}
		ss := &serverSession{
			ID:       m.ID,
			Model:    m.Model,
			Tenant:   tenant,
			spec:     m.Options,
			dir:      dir,
			created:  m.Created,
			lastUsed: m.LastUsed,
			stats: marioh.SessionStats{
				Nodes:      m.Nodes,
				Edges:      m.Edges,
				Components: m.Components,
				Applies:    m.Applies,
				LastDirty:  m.LastDirty,
				Durable:    true,
			},
		}
		s.sessions.Register(ss)
		// Recovered sessions count against their tenant but are never
		// refused — the quota re-applies to new opens.
		s.admission.AdoptSession(tenant)
		n++
	}
	if n > 0 {
		s.cfg.Logf("mariohd: registered %d durable session(s) from %s", n, root)
	}
}

// parkSessions parks every loaded durable session (used at shutdown so
// the next start resumes with zero replay). Returns how many it parked.
func (s *Server) parkSessions() int {
	n := 0
	for _, ss := range s.sessions.List() {
		if ss.durable() && s.park(ss) {
			n++
		}
	}
	return n
}

// handleSessionCreate implements POST /v1/sessions: open an incremental
// session over a base graph with a registry model. With a data dir
// configured the session is durable: its deltas WAL to disk and it
// survives daemon restarts.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Model == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("sessions: model is required"))
		return
	}
	if req.Graph == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("sessions: base graph is required"))
		return
	}
	g, err := parseGraph(req.Graph)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.registry.Get(req.Model)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}

	// Claim the tenant's session quota slot before building anything; it
	// is held until the session is deleted (parking keeps it).
	tenant := tenantFrom(r)
	if err := s.admission.AcquireSession(tenant); err != nil {
		s.reject(w, err)
		return
	}
	installed := false
	defer func() {
		if !installed {
			s.admission.ReleaseSession(tenant)
		}
	}()

	ss := &serverSession{Model: req.Model, Tenant: tenant, spec: req.Options, created: time.Now(), lastUsed: time.Now()}
	rec, err := s.sessionReconstructor(ss, m)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ss.ID = s.sessions.Reserve()
	var sess *marioh.Session
	if s.cfg.DataDir != "" {
		ss.dir = filepath.Join(s.sessionsRoot(), ss.ID)
		dopts := s.durableOptions(ss.dir)
		sess, err = rec.NewSession(r.Context(), marioh.SessionConfig{Graph: g, Durable: &dopts})
	} else {
		sess, err = rec.NewSession(r.Context(), marioh.SessionConfig{Graph: g})
	}
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	ss.sess = sess
	ss.stats = sess.Stats()
	if ss.durable() {
		if err := ss.writeMeta(); err != nil {
			s.cfg.Logf("mariohd: session %s: writing meta: %v", ss.ID, err)
		}
	}
	s.sessions.Install(ss)
	installed = true
	ss.setCost(sessionCost(ss.stats))
	s.metrics.SessionOpen()
	s.enforceLimit(ss.ID)
	s.enforceBudget(ss.ID)
	durable := ""
	if ss.durable() {
		durable = ", durable"
	}
	s.cfg.Logf("mariohd: session %s opened (model %s, %d nodes, %d edges%s)",
		ss.ID, ss.Model, g.NumNodes(), g.NumEdges(), durable)
	s.writeJSON(w, http.StatusCreated, ss.info())
}

// handleSessions implements GET /v1/sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.sessions.List()
	out := make([]SessionInfo, len(sessions))
	for i, ss := range sessions {
		out[i] = ss.info()
	}
	s.writeJSON(w, http.StatusOK, out)
}

// session resolves the request's {id} to a session, answering 404 when
// there is none.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*serverSession, bool) {
	ss, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
	}
	return ss, ok
}

// handleSessionGet implements GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if ss, ok := s.session(w, r); ok {
		s.writeJSON(w, http.StatusOK, ss.info())
	}
}

// handleSessionDelete implements DELETE /v1/sessions/{id}. A durable
// session's on-disk state is removed with it; the close (which may wait
// behind an in-flight apply) happens off the request goroutine.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.Remove(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	ss.drop()
	if ss.Tenant != "" {
		s.admission.ReleaseSession(ss.Tenant)
	}
	if ss.durable() {
		go func() {
			ss.mu.Lock()
			sess := ss.sess
			ss.mu.Unlock()
			if sess != nil {
				if err := sess.Close(); err != nil {
					s.cfg.Logf("mariohd: session %s: closing durable state: %v", ss.ID, err)
				}
			}
			if err := os.RemoveAll(ss.dir); err != nil {
				s.cfg.Logf("mariohd: session %s: removing %s: %v", ss.ID, ss.dir, err)
			}
		}()
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionApply implements POST /v1/sessions/{id}/apply: parse the
// delta stream, run Session.Apply as a job (inline on the request
// goroutine by default, queued with {"async": true}), and answer with the
// full reconstruction of the mutated graph.
func (s *Server) handleSessionApply(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	var req SessionApplyRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ops, err := marioh.ReadDeltas(strings.NewReader(req.Deltas))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Delta streams grow the node set densely (an op introduces at most
	// two nodes), so bound the growth a batch may request — an id far
	// beyond it would make the engine allocate per-node state up to the
	// id before any real work, an easy remote memory exhaustion.
	limit := ss.info().Nodes + 2*len(ops)
	for _, op := range ops {
		if op.U >= limit || op.V >= limit {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf(
				"sessions: delta node id %d beyond the session's growth bound %d (graph has %d nodes)",
				max(op.U, op.V), limit, ss.info().Nodes))
			return
		}
	}
	// An apply is a job like any other for the tenant's quotas: claim a
	// concurrent-job slot and charge the delta bytes before any work.
	relJob, ok := s.acquireJob(w, r, int64(len(req.Deltas)))
	if !ok {
		return
	}
	// One apply at a time per session: deltas are ordered mutations, and
	// two in flight would interleave unpredictably on the worker pool.
	// Acquiring before the load also pins the session in memory — the LRU
	// enforcer never touches a busy session.
	if err := ss.acquire(); err != nil {
		relJob()
		s.writeError(w, errStatus(err), err)
		return
	}
	// release frees both slots. Until the job exists the route calls it
	// directly; then the job's lifecycle runs it as onFinish. Releasing
	// re-checks the memory bounds: a session that was too busy to evict
	// is fair game afterwards.
	release := func() {
		ss.release()
		relJob()
		// Refresh the on-disk meta so a crash before the next park
		// still leaves an accurate applies counter for the parked
		// listing (and for clients computing a Seq guard against it).
		if ss.durable() && ss.loaded() {
			if err := ss.writeMeta(); err != nil {
				s.cfg.Logf("mariohd: session %s: writing meta: %v", ss.ID, err)
			}
		}
		s.enforceLimit("")
		s.enforceBudget("")
	}

	sess, err := s.ensureLoaded(r.Context(), ss)
	if err != nil {
		release()
		s.writeError(w, errStatus(err), err)
		return
	}
	// Seq guard: deltas are not idempotent, so a client resuming after an
	// ambiguous failure asserts the applies counter it believes the
	// session is at; a mismatch means the batch (or someone else's)
	// already landed. Checked under the acquired slot, so it cannot race
	// another apply.
	if req.Seq != nil && *req.Seq != sess.Stats().Applies {
		err := fmt.Errorf("%w: session %s is at %d, request asserted %d",
			ErrSeqMismatch, ss.ID, sess.Stats().Applies, *req.Seq)
		release()
		s.writeError(w, errStatus(err), err)
		return
	}

	run := func(ctx context.Context, job *Job) (any, error) {
		ss.pub.Store(s.publisher(job))
		defer ss.pub.Store(marioh.ProgressFunc(nil))
		res, err := sess.Apply(ctx, marioh.Delta{Ops: ops})
		ss.touch(job.ID)
		if err != nil {
			return nil, err
		}
		s.metrics.Stage("session_apply", res.Times.Filtering+res.Times.Bidirectional)
		st := sess.Stats()
		s.metrics.SessionApply(res.DirtyComponents, st.Components-res.DirtyComponents)
		s.harvestDurability(ss, st)
		rr, err := reconstructResult(res)
		if err != nil {
			return nil, err
		}
		rr.Dirty = res.DirtyComponents
		return rr, nil
	}

	// Default to the queue for sessions over big graphs, mirroring
	// /v1/reconstruct's sync gate: a worst-case apply (the initial build,
	// or a delta merging giant components) reconstructs a graph-sized
	// dirty set, which must not monopolize a request goroutine unless the
	// client explicitly asks for it.
	async := ss.info().Edges > s.cfg.SyncEdgeLimit
	if req.Async != nil {
		async = *req.Async
	}
	if async {
		// Stamp the session before answering, so /events finds the job
		// at once.
		s.enqueue(w, JobSession, release, run, func(job *Job) { ss.touch(job.ID) })
		return
	}
	// By the time the job is done, release has refreshed the cached stats
	// the response snapshots.
	job, result, err := s.runInline(r.Context(), JobSession, release, run)
	if err != nil {
		s.writeError(w, failedStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, SessionApplyResponse{
		JobID:   job.ID,
		Session: ss.info(),
		Result:  result.(ReconstructResult),
	})
}

// handleSessionEvents implements GET /v1/sessions/{id}/events: the SSE
// progress stream of the session's most recent apply job.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.session(w, r)
	if !ok {
		return
	}
	ss.mu.Lock()
	lastJob := ss.lastJob
	ss.mu.Unlock()
	if lastJob == "" {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("session %q has no applies yet", ss.ID))
		return
	}
	job, ok := s.queue.Get(lastJob)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("session %q: job %q expired from history", ss.ID, lastJob))
		return
	}
	s.streamJobEvents(w, r, job)
}
