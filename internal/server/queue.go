package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"time"

	"marioh"
	"marioh/internal/admission"
)

// JobKind names the workload a job carries.
type JobKind string

// The job kinds mariohd runs.
const (
	JobTrain       JobKind = "train"
	JobReconstruct JobKind = "reconstruct"
	JobBatch       JobKind = "batch"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle: Queued → Running → one of the three terminal states.
const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusSucceeded JobStatus = "succeeded"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// Terminal reports whether s is a final state.
func (s JobStatus) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// ErrQueueFull is returned by Submit when the bounded queue has no room;
// handlers map it to 503 Service Unavailable.
var ErrQueueFull = errors.New("server: job queue is full")

// ErrShuttingDown is returned by Submit once the queue stopped accepting
// work.
var ErrShuttingDown = errors.New("server: shutting down")

// runFunc is a job's workload. It must honor ctx and report per-round
// progress through job.publish (which buffers events and fans them out to
// SSE subscribers).
type runFunc func(ctx context.Context, job *Job) (any, error)

// Job is one unit of asynchronous (or inline synchronous) work tracked by
// the Queue: a workload plus its lifecycle state, buffered progress
// events, and live event subscribers.
type Job struct {
	ID   string
	Kind JobKind

	run runFunc
	q   *Queue // owning queue; immutable after registration

	mu        sync.Mutex
	status    JobStatus                         // guarded by mu
	err       error                             // guarded by mu
	result    any                               // guarded by mu
	created   time.Time                         // guarded by mu
	started   time.Time                         // guarded by mu
	finished  time.Time                         // guarded by mu
	events    []marioh.Progress                 // guarded by mu
	subs      map[chan marioh.Progress]struct{} // guarded by mu
	done      chan struct{}                     // closed exactly once by finish (with mu held)
	runCtx    context.Context                   // guarded by mu; the context the workload runs under, tests synchronize on it
	stop      context.CancelFunc                // guarded by mu; cancels runCtx; set when the job starts
	onFinish  func()                            // guarded by mu; releases what the job holds, run by finish
	finishing bool                              // guarded by mu; finish has begun, so the job never starts
	retained  int64                             // guarded by mu; budget bytes charged for the kept result
}

// JobInfo is the JSON-serializable snapshot of a Job returned by the jobs
// endpoints.
type JobInfo struct {
	ID       string     `json:"id"`
	Kind     JobKind    `json:"kind"`
	Status   JobStatus  `json:"status"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Events   int        `json:"events"`
	Result   any        `json:"result,omitempty"`
}

// Info snapshots the job. The result is included only in terminal states.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:      j.ID,
		Kind:    j.Kind,
		Status:  j.status,
		Created: j.created,
		Events:  len(j.events),
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		info.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		info.Finished = &t
	}
	if j.status.Terminal() {
		info.Result = j.result
	}
	return info
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the workload's return value and error; valid once Done is
// closed.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// publish buffers a progress event and fans it out to subscribers. A
// subscriber whose channel is full misses the event (it still has the
// buffered prefix to recover from via resubscribe; SSE channels are sized
// so this only happens to pathologically slow clients).
func (j *Job) publish(p marioh.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, p)
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// Subscribe returns a copy of the events so far plus a channel of
// subsequent events. The channel is closed when the job finishes. Callers
// must Unsubscribe.
func (j *Job) Subscribe() ([]marioh.Progress, <-chan marioh.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past := append([]marioh.Progress(nil), j.events...)
	ch := make(chan marioh.Progress, 256)
	if j.status.Terminal() {
		close(ch)
		return past, ch
	}
	if j.subs == nil {
		j.subs = map[chan marioh.Progress]struct{}{}
	}
	j.subs[ch] = struct{}{}
	return past, ch
}

// Unsubscribe removes a Subscribe channel.
func (j *Job) Unsubscribe(ch <-chan marioh.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for sub := range j.subs {
		if sub == ch {
			delete(j.subs, sub)
			return
		}
	}
}

// finish ends the job. It runs onFinish first, so whatever the job held
// is released before Status, Info or Done can show the job terminal: a
// client that saw it finish may claim the same slots again at once. Then
// it stores the outcome, closes the done channel and all subscriber
// channels, and charges the retained result against the memory budget.
// finish runs once per job: from execute once the workload returns, or
// from cancel for a job that never started.
func (j *Job) finish(status JobStatus, result any, err error) {
	j.mu.Lock()
	j.finishing = true
	hook := j.onFinish
	j.onFinish = nil
	j.mu.Unlock()
	// The hook runs outside j.mu so it may take other locks freely.
	if hook != nil {
		hook()
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = status
	j.result = result
	j.err = err
	j.finished = time.Now()
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	if j.q.budget != nil {
		j.retained = resultCost(result)
		if j.retained > 0 {
			j.q.budget.Charge(budgetPoolResults, j.retained)
		}
	}
	close(j.done)
}

// cancel aborts the job: a running job has its context cancelled (and
// finishes once the workload observes it), a queued one finishes as
// cancelled at once and never starts.
func (j *Job) cancel() {
	j.mu.Lock()
	stop := j.stop
	queued := stop == nil && !j.finishing
	if queued {
		j.finishing = true // claimed here, so execute can no longer start it
	}
	j.mu.Unlock()
	switch {
	case stop != nil:
		stop()
	case queued:
		j.finish(StatusCancelled, nil, context.Canceled)
	}
}

// execute runs the workload under a child of parent, classifying the
// outcome: a workload error equal to ctx.Err() counts as cancellation, not
// failure. A panicking workload fails its own job instead of killing the
// worker goroutine (and with it the daemon) — malformed inputs that slip
// past request validation must never be able to crash the process from
// the async lane. The panic's stack goes to the queue's log; the job's
// error, which clients read, carries only the panic value.
func (j *Job) execute(parent context.Context) {
	ctx, stop := context.WithCancel(parent)
	defer stop()
	j.mu.Lock()
	if j.finishing { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.runCtx, j.stop = ctx, stop
	run := j.run
	j.mu.Unlock()

	result, err := func() (result any, err error) {
		defer func() {
			if p := recover(); p != nil {
				j.q.logf("mariohd: job %s (%s) panicked: %v\n%s", j.ID, j.Kind, p, debug.Stack())
				result, err = nil, fmt.Errorf("job panicked: %v", p)
			}
		}()
		return run(ctx, j)
	}()
	switch {
	case err == nil:
		j.finish(StatusSucceeded, result, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusCancelled, result, err)
	default:
		j.finish(StatusFailed, result, err)
	}
}

// Queue is a bounded worker-pool job queue: Submit enqueues (rejecting
// when full), a fixed set of workers executes, Cancel aborts one job, and
// Drain performs graceful shutdown — stop accepting, finish everything
// already accepted, then return.
type Queue struct {
	jobs chan *Job

	// budget, when set (before any traffic), meters retained job results
	// under budgetPoolResults; onEvict observes each result eviction; logf
	// receives the stacks of panicking workloads.
	budget  *admission.Budget
	onEvict func()
	logf    func(format string, args ...any)

	mu         sync.Mutex
	byID       map[string]*Job // guarded by mu
	order      []string        // guarded by mu; insertion order for listings
	nextID     int             // guarded by mu
	history    int             // immutable after NewQueue; terminal jobs retained for inspection
	root       context.Context
	rootCancel context.CancelFunc
	closed     bool // guarded by mu

	wg sync.WaitGroup
}

// budgetPoolResults is the Budget pool metering retained job results.
const budgetPoolResults = "results"

// resultCost estimates the retained bytes of a terminal job's result
// payload. The hypergraph text dominates every payload that carries one;
// fixed-size metadata gets a small constant.
func resultCost(v any) int64 {
	const meta = 256
	switch r := v.(type) {
	case ReconstructResult:
		return int64(len(r.Hypergraph)) + meta
	case BatchResult:
		var sum int64
		for i := range r.Results {
			sum += int64(len(r.Results[i].Hypergraph)) + meta
		}
		return sum
	case nil:
		return 0
	default:
		return meta
	}
}

// NewQueue starts workers goroutines servicing a queue of at most depth
// pending jobs. root bounds every job's context: cancelling it aborts all
// queued and running work (the hard-shutdown path). history bounds how
// many finished jobs (with their results and event buffers) are retained
// for GET /v1/jobs inspection — the oldest terminal jobs are evicted past
// it, so a long-lived daemon's memory stays bounded.
func NewQueue(root context.Context, workers, depth, history int) *Queue {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 64
	}
	if history <= 0 {
		history = 256
	}
	rootCtx, rootCancel := context.WithCancel(root)
	q := &Queue{
		jobs:       make(chan *Job, depth),
		byID:       map[string]*Job{},
		history:    history,
		root:       rootCtx,
		rootCancel: rootCancel,
		logf:       log.Printf,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.work()
	}
	return q
}

func (q *Queue) work() {
	defer q.wg.Done()
	for job := range q.jobs {
		job.execute(q.root)
	}
}

// NewJob registers a job without queueing it, for a workload the caller
// runs inline on its own goroutine with RunInline. onFinish, when not nil,
// releases what the job holds: it runs exactly once, when the job
// finishes, before the job reads as terminal. If NewJob fails, onFinish
// never runs and the caller still owns what it claimed.
func (q *Queue) NewJob(kind JobKind, onFinish func(), run runFunc) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrShuttingDown
	}
	return q.register(kind, onFinish, run), nil
}

// register allocates and indexes a job, evicting the oldest terminal jobs
// beyond the history bound; callers hold q.mu.
func (q *Queue) register(kind JobKind, onFinish func(), run runFunc) *Job {
	q.nextID++
	job := &Job{
		ID:       fmt.Sprintf("j-%06d", q.nextID),
		Kind:     kind,
		run:      run,
		q:        q,
		status:   StatusQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
		onFinish: onFinish,
	}
	q.byID[job.ID] = job
	q.order = append(q.order, job.ID)
	if len(q.order) > q.history {
		kept := q.order[:0]
		excess := len(q.order) - q.history
		for _, id := range q.order {
			if excess > 0 && q.dropLocked(id) {
				excess--
				continue
			}
			kept = append(kept, id)
		}
		q.order = kept
	}
	return job
}

// dropLocked forgets a terminal job, releasing its retained-result bytes
// from the budget; it reports whether the job was dropped (non-terminal
// jobs never are). Callers hold q.mu and fix up q.order themselves.
func (q *Queue) dropLocked(id string) bool {
	job := q.byID[id]
	if job == nil || !job.Status().Terminal() {
		return false
	}
	delete(q.byID, id)
	job.mu.Lock()
	retained := job.retained
	job.retained = 0
	job.mu.Unlock()
	if retained > 0 && q.budget != nil {
		q.budget.Charge(budgetPoolResults, -retained)
	}
	if q.onEvict != nil {
		q.onEvict()
	}
	return true
}

// ShedResults evicts the oldest terminal jobs until at least n retained
// bytes are freed (or no terminal job remains), returning the bytes
// actually freed. The server calls it under memory pressure — kept job
// results are cheaper to lose than live sessions.
func (q *Queue) ShedResults(n int64) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var freed int64
	kept := q.order[:0]
	for i, id := range q.order {
		if freed >= n {
			kept = append(kept, q.order[i:]...)
			break
		}
		job := q.byID[id]
		if job == nil {
			continue
		}
		job.mu.Lock()
		retained := job.retained
		job.mu.Unlock()
		if retained <= 0 || !q.dropLocked(id) {
			kept = append(kept, id)
			continue
		}
		freed += retained
	}
	q.order = kept
	return freed
}

// RunInline executes a NewJob-registered job on the calling goroutine,
// bound to both ctx (typically the HTTP request context, so a client
// disconnect cancels the job) and the queue root, and returns the
// workload's outcome. By then the job is terminal and its onFinish has
// run.
func (q *Queue) RunInline(ctx context.Context, job *Job) (any, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(q.root, cancel)()
	job.execute(ctx)
	<-job.Done() // a job cancelled before it started finishes on the canceller's goroutine
	return job.Result()
}

// Submit registers a job and enqueues it for the worker pool, returning
// ErrQueueFull when the bounded buffer is at capacity and ErrShuttingDown
// once Drain began. onFinish is NewJob's: it runs exactly once, before the
// job reads as terminal, also for a job cancelled before it starts. A
// refused job leaves no trace and never runs onFinish, so the caller
// still owns what it claimed.
func (q *Queue) Submit(kind JobKind, onFinish func(), run runFunc) (*Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrShuttingDown
	}
	job := q.register(kind, onFinish, run)
	select {
	case q.jobs <- job:
		q.mu.Unlock()
		return job, nil
	default:
		// Roll the registration back so a rejected submit leaves no trace.
		delete(q.byID, job.ID)
		q.order = q.order[:len(q.order)-1]
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// Get looks a job up by ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.byID[id]
	return job, ok
}

// Cancel aborts a job: a queued job is finished as cancelled immediately,
// a running one has its context cancelled (and reaches the cancelled state
// once the workload observes it). It reports whether the job exists.
func (q *Queue) Cancel(id string) bool {
	job, ok := q.Get(id)
	if ok {
		job.cancel()
	}
	return ok
}

// Jobs lists every known job in submission order.
func (q *Queue) Jobs() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.byID[id])
	}
	return out
}

// Depth returns the number of jobs waiting in the buffer (not yet picked
// up by a worker).
func (q *Queue) Depth() int { return len(q.jobs) }

// Counts tallies jobs by status.
func (q *Queue) Counts() map[JobStatus]int {
	out := map[JobStatus]int{}
	for _, job := range q.Jobs() {
		out[job.Status()]++
	}
	return out
}

// Drain gracefully shuts the queue down: no new submissions, every job
// already accepted runs to completion, then the workers exit. If ctx
// expires first, the queue root is cancelled — aborting every queued and
// running job — and Drain waits for the workers to observe the
// cancellation before returning ctx's error.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.rootCancel()
		<-done
		return ctx.Err()
	}
}
