package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"marioh"
)

// maxBody bounds request bodies (graph/hypergraph texts are a few bytes
// per edge, so this admits graphs with tens of millions of edges).
const maxBody = 256 << 20

// decode parses a JSON request body into dst.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// A route that runs a job claims what the job holds (the tenant's job
// slot and queued bytes, plus the session's apply slot for an apply) and
// hands its release to enqueue or runInline as onFinish. From then on the
// lifecycle releases it exactly once: at once if the queue refuses the
// job, otherwise before the job reads as terminal.

// enqueue queues a job for the worker pool and answers 202 with it;
// queued, when not nil, sees the job before the answer is written. If
// the queue refuses the job, enqueue releases onFinish at once and
// answers the refusal.
func (s *Server) enqueue(w http.ResponseWriter, kind JobKind, onFinish func(), run runFunc, queued func(*Job)) {
	job, err := s.queue.Submit(kind, onFinish, run)
	if err != nil {
		if onFinish != nil {
			onFinish()
		}
		s.writeError(w, errStatus(err), err)
		return
	}
	s.watch(job)
	if queued != nil {
		queued(job)
	}
	s.writeJSON(w, http.StatusAccepted, job.Info())
}

// runInline registers a job and runs it on the calling goroutine under
// ctx, returning the job and the workload's outcome. If the queue refuses
// the job, runInline releases onFinish at once and returns a nil job with
// the refusal. A route answers a failed outcome with failedStatus.
func (s *Server) runInline(ctx context.Context, kind JobKind, onFinish func(), run runFunc) (*Job, any, error) {
	job, err := s.queue.NewJob(kind, onFinish, run)
	if err != nil {
		if onFinish != nil {
			onFinish()
		}
		return nil, nil, err
	}
	s.watch(job)
	result, err := s.queue.RunInline(ctx, job)
	return job, result, err
}

// failedStatus is the HTTP status of a failed inline request: a
// cancelled or timed-out one (the client is usually gone) answers 503,
// every other error its errStatus.
func failedStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return errStatus(err)
}

// watch logs and counts a job's terminal transition, then re-checks the
// memory budget — the finished job may have retained a result.
func (s *Server) watch(job *Job) {
	s.metrics.Job("submitted")
	go func() {
		<-job.Done()
		status := job.Status()
		s.metrics.Job(string(status))
		if _, err := job.Result(); err != nil {
			s.cfg.Logf("mariohd: job %s (%s) %s: %v", job.ID, job.Kind, status, err)
		} else {
			s.cfg.Logf("mariohd: job %s (%s) %s", job.ID, job.Kind, status)
		}
		s.enforceBudget("")
	}()
}

// acquireJob claims the request tenant's job slot charging bytes of
// queued payload, writing the 429 itself on rejection. The caller must
// release the slot exactly once, directly or as a job's onFinish; ok
// reports whether the slot was granted.
func (s *Server) acquireJob(w http.ResponseWriter, r *http.Request, bytes int64) (release func(), ok bool) {
	release, err := s.admission.AcquireJob(tenantFrom(r), bytes)
	if err != nil {
		s.reject(w, err)
		return nil, false
	}
	return release, true
}

// publisher adapts a job to a ProgressFunc, threading the test hook in
// front of the fan-out.
func (s *Server) publisher(job *Job) marioh.ProgressFunc {
	hook := s.cfg.testProgressHook
	return func(p marioh.Progress) {
		if hook != nil {
			hook(p)
		}
		job.publish(p)
	}
}

// reconstructResult converts a library result to its wire form.
func reconstructResult(res *marioh.Result) (ReconstructResult, error) {
	var buf bytes.Buffer
	if err := res.Hypergraph.Write(&buf); err != nil {
		return ReconstructResult{}, err
	}
	return ReconstructResult{
		Hypergraph:    buf.String(),
		Unique:        res.Hypergraph.NumUnique(),
		Total:         res.Hypergraph.NumTotal(),
		Rounds:        res.Times.Rounds,
		FilteredSize2: res.FilteredSize2,
		FilterSeconds: res.Times.Filtering.Seconds(),
		SearchSeconds: res.Times.Bidirectional.Seconds(),
		Shards:        res.Shards,
	}, nil
}

// handleTrain implements POST /v1/train: always asynchronous, answering
// 202 with the job; the trained model lands in the registry under save_as
// (default: the job ID).
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req TrainRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	src, err := parseHypergraph(req.Source)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if src.NumUnique() == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("train: empty source hypergraph"))
		return
	}
	if req.SaveAs != "" {
		if err := validName(req.SaveAs); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	opts, err := req.Options.Options()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	relJob, ok := s.acquireJob(w, r, int64(len(req.Source)))
	if !ok {
		return
	}

	s.enqueue(w, JobTrain, relJob, func(ctx context.Context, job *Job) (any, error) {
		rec, err := marioh.New(opts...)
		if err != nil {
			return nil, err
		}
		model, err := rec.Train(ctx, src.Project(), src)
		if err != nil {
			return nil, err
		}
		s.metrics.Stage("train_sample", model.Stats.SampleTime)
		s.metrics.Stage("train_optimize", model.Stats.TrainTime)
		name := req.SaveAs
		if name == "" {
			name = job.ID
		}
		if err := s.registry.Save(name, model); err != nil {
			return nil, err
		}
		return TrainResult{
			Model:         name,
			Featurizer:    model.Feat.Name(),
			Positives:     model.Stats.Positives,
			Negatives:     model.Stats.Negatives,
			SampleSeconds: model.Stats.SampleTime.Seconds(),
			TrainSeconds:  model.Stats.TrainTime.Seconds(),
		}, nil
	}, nil)
}

// reconstructor builds a reconstruct or batch job's Reconstructor: the
// request's options and model, publishing progress into the job.
func (s *Server) reconstructor(job *Job, m *marioh.Model, opts []marioh.Option) (*marioh.Reconstructor, error) {
	return marioh.New(append(append([]marioh.Option(nil), opts...),
		marioh.WithModel(m), marioh.WithProgress(s.publisher(job)))...)
}

// recordResult counts a finished reconstruction's stages and converts it
// to its wire form.
func (s *Server) recordResult(res *marioh.Result) (ReconstructResult, error) {
	s.metrics.Stage("filter", res.Times.Filtering)
	s.metrics.Stage("search", res.Times.Bidirectional)
	if res.Shards > 0 {
		s.metrics.ShardRun(res.Shards)
	}
	return reconstructResult(res)
}

// handleReconstruct implements POST /v1/reconstruct: synchronous for
// targets at or below the sync edge limit (the job runs on the request
// goroutine, so a client disconnect cancels it), 202-asynchronous above
// it or when the request forces async.
func (s *Server) handleReconstruct(w http.ResponseWriter, r *http.Request) {
	var req ReconstructRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Targets) > 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("reconstruct: use /v1/reconstruct/batch for multiple targets"))
		return
	}
	if req.Target == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("reconstruct: target graph is required"))
		return
	}
	g, err := parseGraph(req.Target)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	m, opts, err := s.reconstructModel(req)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	run := func(ctx context.Context, job *Job) (any, error) {
		rec, err := s.reconstructor(job, m, opts)
		if err != nil {
			return nil, err
		}
		res, err := rec.Reconstruct(ctx, g)
		if err != nil {
			return nil, err
		}
		return s.recordResult(res)
	}

	async := g.NumEdges() > s.cfg.SyncEdgeLimit
	if req.Async != nil {
		async = *req.Async
	}
	// The tenant's job slot covers an async job until it finishes, and a
	// synchronous request for its whole duration, leading the computation
	// or waiting on an identical one in flight.
	relJob, ok := s.acquireJob(w, r, int64(len(req.Target)))
	if !ok {
		return
	}
	if async {
		s.enqueue(w, JobReconstruct, relJob, run, nil)
		return
	}
	defer relJob()

	// Reconstruction is deterministic, so identical (model hash, graph,
	// semantic options) requests collapse into one computation and its
	// result is served content-addressed from the cache.
	key, err := s.dedupKey(req.Model, g, req.Options)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	val, _, err := s.dedup.Do(r.Context(), key, func(fctx context.Context) (any, int64, error) {
		// fctx lives as long as any interested caller — the leader
		// disconnecting does not abort a computation others wait on.
		job, result, err := s.runInline(fctx, JobReconstruct, nil, run)
		if err != nil {
			return nil, 0, err
		}
		rr := result.(ReconstructResult)
		return ReconstructResponse{JobID: job.ID, Result: rr}, resultCost(rr), nil
	})
	if err != nil {
		s.writeError(w, failedStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, val.(ReconstructResponse))
}

// dedupKey derives the content address of a synchronous reconstruction:
// the model's serialized hash, the canonical graph text, and the full
// option spec. The hypergraph bytes are identical across execution-shape
// knobs (shards, parallelism), but the response metadata (Shards, stage
// timings) is not — so the whole spec keys the entry and only truly
// identical requests share a response.
func (s *Server) dedupKey(model string, g *marioh.Graph, spec OptionSpec) (string, error) {
	mh, err := s.registry.Hash(model)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, mh)
	io.WriteString(h, "\x00")
	if err := g.Write(h); err != nil {
		return "", err
	}
	canon, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	io.WriteString(h, "\x00")
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// reconstructModel resolves the registry model and the options of a
// reconstruct or batch request; the request fans its shards over its
// own parallelism.
func (s *Server) reconstructModel(req ReconstructRequest) (*marioh.Model, []marioh.Option, error) {
	if req.Model == "" {
		return nil, nil, errors.New("reconstruct: model is required (train first or PUT /v1/models/{name})")
	}
	m, err := s.registry.Get(req.Model)
	if err != nil {
		return nil, nil, err
	}
	opts, err := req.Options.Options()
	if err != nil {
		return nil, nil, err
	}
	if req.Options.Shards != 0 {
		opts = append(opts, marioh.WithSharding(marioh.ShardingOptions{Shards: req.Options.Shards}))
	}
	return m, opts, nil
}

// handleBatch implements POST /v1/reconstruct/batch: always asynchronous,
// fanning out through ReconstructBatch's worker pool.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req ReconstructRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Targets) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("batch: targets is required"))
		return
	}
	graphs := make([]*marioh.Graph, len(req.Targets))
	var queued int64
	for i, t := range req.Targets {
		g, err := parseGraph(t)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("target %d: %w", i, err))
			return
		}
		graphs[i] = g
		queued += int64(len(t))
	}
	m, opts, err := s.reconstructModel(req)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	relJob, ok := s.acquireJob(w, r, queued)
	if !ok {
		return
	}

	s.enqueue(w, JobBatch, relJob, func(ctx context.Context, job *Job) (any, error) {
		rec, err := s.reconstructor(job, m, opts)
		if err != nil {
			return nil, err
		}
		results, err := rec.ReconstructBatch(ctx, graphs)
		if err != nil {
			return nil, err
		}
		out := BatchResult{Results: make([]ReconstructResult, len(results))}
		for i, res := range results {
			if out.Results[i], err = s.recordResult(res); err != nil {
				return nil, err
			}
		}
		return out, nil
	}, nil)
}

// handleJobs implements GET /v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.Jobs()
	out := make([]JobInfo, len(jobs))
	for i, job := range jobs {
		out[i] = job.Info()
	}
	s.writeJSON(w, http.StatusOK, out)
}

// job resolves the request's {id} to a job, answering 404 when there is
// none.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	}
	return job, ok
}

// handleJob implements GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		s.writeJSON(w, http.StatusOK, job.Info())
	}
}

// handleJobCancel implements DELETE /v1/jobs/{id}: cancellation is
// asynchronous — the response reports the state at cancel time, and the
// job reaches "cancelled" once the workload observes its context. The
// job is fetched before cancelling so a concurrent history eviction
// cannot void the response snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		s.queue.Cancel(job.ID)
		s.writeJSON(w, http.StatusAccepted, job.Info())
	}
}

// handleJobEvents implements GET /v1/jobs/{id}/events: a Server-Sent
// Events stream that replays the job's buffered progress events, follows
// with live ones, and terminates with a "done" event carrying the final
// status. Client disconnects just unsubscribe; they never affect the job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		s.streamJobEvents(w, r, job)
	}
}

// streamJobEvents writes a job's SSE progress stream: buffered replay,
// live events, then a terminal "done" frame. Shared by the job and
// session event endpoints.
func (s *Server) streamJobEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	past, live := job.Subscribe()
	defer job.Unsubscribe(live)

	seq := 0
	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, event, data); err != nil {
			return false
		}
		seq++
		flusher.Flush()
		return true
	}
	for _, p := range past {
		if !emit("progress", progressEvent(p)) {
			return
		}
	}
	for {
		select {
		case p, ok := <-live:
			if !ok {
				info := job.Info()
				emit("done", map[string]any{"status": info.Status, "error": info.Error})
				return
			}
			if !emit("progress", progressEvent(p)) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleModels implements GET /v1/models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.registry.List())
}

// handleModelGet implements GET /v1/models/{name}, returning the model's
// serialized JSON (loadable by marioh.LoadModel).
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	raw, err := s.registry.Raw(r.PathValue("name"))
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleModelPut implements PUT /v1/models/{name}: upload a model saved
// with marioh.SaveModel. The payload is validated before it is stored.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	if err := s.registry.Put(name, raw); err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	info, err := s.registry.Info(name)
	if err != nil {
		info = ModelInfo{Name: name}
	}
	s.writeJSON(w, http.StatusCreated, info)
}

// handleModelDelete implements DELETE /v1/models/{name}.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.registry.Delete(r.PathValue("name")); err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	loaded, parked := s.sessions.Counts()
	s.writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Version:       marioh.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queue.Depth(),
		Models:        s.registry.Len(),
		Sessions:      loaded,
		Parked:        parked,
	})
}

// handleMetrics implements GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	loaded, parked := s.sessions.Counts()
	s.metrics.Render(w, MetricsSnapshot{
		QueueDepth:     s.queue.Depth(),
		JobCounts:      s.queue.Counts(),
		OpenSessions:   loaded,
		ParkedSessions: parked,
		ActiveTenants:  s.admission.ActiveTenants(),
		Dedup:          s.dedup.Stats(),
		BudgetPools:    s.budget.Snapshot(),
		BudgetTotal:    s.budget.Total(),
		RSSBytes:       rssBytes(),
	})
}
