package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"marioh"
)

// blockUntilCtx is a workload that publishes one event and then waits for
// its context, the stand-in for a long reconstruction.
func blockUntilCtx(ctx context.Context, job *Job) (any, error) {
	job.publish(marioh.Progress{Round: 1})
	<-ctx.Done()
	return nil, ctx.Err()
}

// quickJob is a workload that finishes immediately.
func quickJob(ctx context.Context, job *Job) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	job.publish(marioh.Progress{Round: 1})
	return "done", nil
}

// TestQueueDrainRunsAcceptedJobs pins the graceful-shutdown contract:
// every job accepted before Drain runs to completion.
func TestQueueDrainRunsAcceptedJobs(t *testing.T) {
	q := NewQueue(context.Background(), 2, 32, 0)
	var jobs []*Job
	for i := 0; i < 10; i++ {
		job, err := q.Submit(JobReconstruct, nil, quickJob)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if got := job.Status(); got != StatusSucceeded {
			t.Fatalf("job %s = %q after drain, want succeeded", job.ID, got)
		}
		if result, _ := job.Result(); result != "done" {
			t.Fatalf("job %s result = %v", job.ID, result)
		}
	}
	if _, err := q.Submit(JobTrain, nil, quickJob); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after drain = %v, want ErrShuttingDown", err)
	}
}

// TestQueuePanickingJobFailsWithoutKillingWorker: a workload panic must
// fail its own job and leave the worker alive to run the next one — a
// crafted request that slips past validation must never take down the
// daemon from the async lane. The stack goes to the log; the job's error,
// which reaches clients, holds only the panic value.
func TestQueuePanickingJobFailsWithoutKillingWorker(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 0)
	var logMu sync.Mutex
	var logged strings.Builder
	q.logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logged, format, args...)
	}
	bad, err := q.Submit(JobReconstruct, nil, func(context.Context, *Job) (any, error) {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := q.Submit(JobReconstruct, nil, quickJob)
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if got := bad.Status(); got != StatusFailed {
		t.Fatalf("panicking job = %q, want failed", got)
	}
	if _, err := bad.Result(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking job error = %v, want the panic value", err)
	}
	if _, err := bad.Result(); strings.Contains(err.Error(), "goroutine") || strings.Contains(err.Error(), ".go:") {
		t.Fatalf("panicking job error carries a stack frame: %q", err)
	}
	logMu.Lock()
	stack := logged.String()
	logMu.Unlock()
	if !strings.Contains(stack, "boom") || !strings.Contains(stack, "goroutine") {
		t.Fatalf("panic stack not logged: %q", stack)
	}
	// The single worker survived and services the next job.
	<-good.Done()
	if got := good.Status(); got != StatusSucceeded {
		t.Fatalf("follow-up job = %q, want succeeded", got)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueDrainTimeoutCancelsStuckJobs: when the drain budget expires,
// running jobs are cancelled rather than leaking.
func TestQueueDrainTimeoutCancelsStuckJobs(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 0)
	job, err := q.Submit(JobReconstruct, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	if got := job.Status(); got != StatusCancelled {
		t.Fatalf("stuck job = %q after forced drain, want cancelled", got)
	}
}

// TestQueueBoundedRejectsWhenFull pins the 503 path: with one worker
// blocked and the buffer full, the next submission fails fast and leaves
// no orphan job behind.
func TestQueueBoundedRejectsWhenFull(t *testing.T) {
	q := NewQueue(context.Background(), 1, 1, 0)
	running, err := q.Submit(JobReconstruct, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked the job up so the buffer is empty.
	waitStatus(t, running, StatusRunning)

	queued, err := q.Submit(JobReconstruct, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(JobReconstruct, nil, blockUntilCtx); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if n := len(q.Jobs()); n != 2 {
		t.Fatalf("rejected submit left a trace: %d jobs", n)
	}

	// Cancelling the buffered job must finish it without running it.
	if !q.Cancel(queued.ID) {
		t.Fatal("cancel queued job")
	}
	if got := queued.Status(); got != StatusCancelled {
		t.Fatalf("queued job = %q after cancel, want cancelled", got)
	}
	if !q.Cancel(running.ID) {
		t.Fatal("cancel running job")
	}
	waitStatus(t, running, StatusCancelled)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFinishHookRunsBeforeTerminal pins the release order every route
// relies on: onFinish runs exactly once and before the job reads as
// terminal — for a job run inline, one run by a worker, and a queued one
// cancelled before it starts (which then never runs) — so a client that
// saw its job finish finds the job's slots free. A refused Submit never
// runs it: the caller still owns what it claimed.
func TestQueueFinishHookRunsBeforeTerminal(t *testing.T) {
	q := NewQueue(context.Background(), 1, 1, 0)
	type hooked struct {
		job   *Job // set before the job can finish
		calls atomic.Int32
	}
	onFinish := func(h *hooked) func() {
		return func() {
			h.calls.Add(1)
			if st := h.job.Status(); st.Terminal() {
				t.Errorf("job %s reads %q inside onFinish", h.job.ID, st)
			}
			if info := h.job.Info(); info.Status.Terminal() || info.Finished != nil {
				t.Errorf("job %s info reads finished inside onFinish: %+v", h.job.ID, info)
			}
			select {
			case <-h.job.Done():
				t.Errorf("job %s is done inside onFinish", h.job.ID)
			default:
			}
		}
	}
	var err error

	inline := &hooked{}
	if inline.job, err = q.NewJob(JobReconstruct, onFinish(inline), quickJob); err != nil {
		t.Fatal(err)
	}
	q.RunInline(context.Background(), inline.job)
	if n := inline.calls.Load(); n != 1 || inline.job.Status() != StatusSucceeded {
		t.Fatalf("inline job: onFinish ran %d times, status %q", n, inline.job.Status())
	}

	queued := &hooked{}
	gate := make(chan struct{})
	queued.job, err = q.Submit(JobReconstruct, onFinish(queued), func(ctx context.Context, job *Job) (any, error) {
		<-gate
		return quickJob(ctx, job)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-queued.job.Done()
	if n := queued.calls.Load(); n != 1 {
		t.Fatalf("worker job: onFinish ran %d times by Done, want 1", n)
	}

	// Hold the only worker so the next job stays queued, then cancel it.
	running, err := q.Submit(JobBatch, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, running, StatusRunning)
	cancelled := &hooked{}
	cancelled.job, err = q.Submit(JobReconstruct, onFinish(cancelled), func(context.Context, *Job) (any, error) {
		t.Error("a job cancelled while queued started")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(cancelled.job.ID) {
		t.Fatal("cancel queued job")
	}
	if n := cancelled.calls.Load(); n != 1 || cancelled.job.Status() != StatusCancelled {
		t.Fatalf("cancelled queued job: onFinish ran %d times, status %q", n, cancelled.job.Status())
	}

	// The cancelled job still fills the buffer, so this Submit is refused.
	var refusedCalls atomic.Int32
	if _, err := q.Submit(JobReconstruct, func() { refusedCalls.Add(1) }, quickJob); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full buffer = %v, want ErrQueueFull", err)
	}
	q.Cancel(running.ID)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := cancelled.calls.Load(); n != 1 {
		t.Fatalf("cancelled queued job: onFinish ran %d times after drain, want 1", n)
	}
	if n := refusedCalls.Load(); n != 0 {
		t.Fatalf("refused Submit ran onFinish %d times", n)
	}
}

func waitStatus(t *testing.T, job *Job, want JobStatus) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for job.Status() != want {
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %q waiting for %q", job.ID, job.Status(), want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestQueueConcurrentSubmitCancelDrain is the -race exercise: many
// goroutines submitting, cancelling and subscribing while the queue
// drains. The assertions are that nothing deadlocks, every accepted job
// reaches a terminal state, and IDs stay unique.
func TestQueueConcurrentSubmitCancelDrain(t *testing.T) {
	q := NewQueue(context.Background(), 4, 16, 0)
	const submitters = 8
	const perSubmitter = 10

	var mu sync.Mutex
	var accepted []*Job

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				kind := JobReconstruct
				run := quickJob
				if i%3 == 0 {
					run = blockUntilCtx
					kind = JobBatch
				}
				job, err := q.Submit(kind, nil, run)
				if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				accepted = append(accepted, job)
				mu.Unlock()
				// Subscribe/unsubscribe and cancel concurrently with the run.
				past, ch := job.Subscribe()
				_ = past
				if i%2 == 0 {
					q.Cancel(job.ID)
				}
				job.Unsubscribe(ch)
			}
		}(s)
	}
	wg.Wait()

	// Cancel the long-running jobs so a plain drain terminates.
	mu.Lock()
	for _, job := range accepted {
		if job.Kind == JobBatch {
			q.Cancel(job.ID)
		}
	}
	jobs := append([]*Job(nil), accepted...)
	mu.Unlock()

	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := q.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	seen := map[string]bool{}
	for _, job := range jobs {
		if !job.Status().Terminal() {
			t.Fatalf("job %s not terminal after drain: %q", job.ID, job.Status())
		}
		if seen[job.ID] {
			t.Fatalf("duplicate job ID %s", job.ID)
		}
		seen[job.ID] = true
	}
}

// TestQueueSubscribeReplaysAndCloses covers the event-log contract backing
// SSE: late subscribers get the full replay, and channels close on finish.
func TestQueueSubscribeReplaysAndCloses(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 0)
	job, err := q.Submit(JobReconstruct, nil, func(ctx context.Context, job *Job) (any, error) {
		for i := 1; i <= 5; i++ {
			job.publish(marioh.Progress{Round: i})
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	past, ch := job.Subscribe()
	if len(past) != 5 {
		t.Fatalf("replay has %d events, want 5", len(past))
	}
	for i, p := range past {
		if p.Round != i+1 {
			t.Fatalf("replay out of order: %v", past)
		}
	}
	if _, open := <-ch; open {
		t.Fatal("live channel of a finished job must be closed")
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueRunInlineHonorsCallerContext covers the synchronous path: the
// caller's context cancels the job, and queue-root cancellation (hard
// shutdown) does too.
func TestQueueRunInlineHonorsCallerContext(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 0)
	job, err := q.NewJob(JobReconstruct, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the workload has started publishing; the first event
		// may already be in the replay buffer by subscription time.
		past, ch := job.Subscribe()
		defer job.Unsubscribe(ch)
		if len(past) == 0 {
			select {
			case <-ch:
			case <-time.After(30 * time.Second):
			}
		}
		cancel()
	}()
	q.RunInline(ctx, job)
	if got := job.Status(); got != StatusCancelled {
		t.Fatalf("inline job = %q, want cancelled", got)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueHistoryEvictsTerminalJobs pins the memory bound: finished jobs
// beyond the history cap are evicted oldest-first, while live jobs are
// never evicted regardless of age.
func TestQueueHistoryEvictsTerminalJobs(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 3)
	blocked, err := q.Submit(JobBatch, nil, blockUntilCtx)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocked, StatusRunning)

	var done []*Job
	for i := 0; i < 5; i++ {
		job, err := q.NewJob(JobReconstruct, nil, quickJob)
		if err != nil {
			t.Fatal(err)
		}
		q.RunInline(context.Background(), job)
		done = append(done, job)
	}

	if n := len(q.Jobs()); n != 3 {
		t.Fatalf("history keeps %d jobs, want 3", n)
	}
	if _, ok := q.Get(blocked.ID); !ok {
		t.Fatal("running job must survive eviction")
	}
	if _, ok := q.Get(done[0].ID); ok {
		t.Fatal("oldest finished job must be evicted")
	}
	if _, ok := q.Get(done[len(done)-1].ID); !ok {
		t.Fatal("newest finished job must be retained")
	}

	q.Cancel(blocked.ID)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueueIDsAreSequential pins the ID format the CLI and logs rely on.
func TestQueueIDsAreSequential(t *testing.T) {
	q := NewQueue(context.Background(), 1, 8, 0)
	for i := 1; i <= 3; i++ {
		job, err := q.NewJob(JobTrain, nil, quickJob)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("j-%06d", i); job.ID != want {
			t.Fatalf("job ID = %q, want %q", job.ID, want)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
