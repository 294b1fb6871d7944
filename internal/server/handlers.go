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

// submit queues an async job and attaches the metrics/log watcher.
func (s *Server) submit(kind JobKind, run runFunc) (*Job, error) {
	return s.submitMeta(kind, JobMeta{}, run)
}

// submitMeta is submit with admission accounting attached; on rejection
// meta.OnFinish is not called (the caller still owns its slot).
func (s *Server) submitMeta(kind JobKind, meta JobMeta, run runFunc) (*Job, error) {
	job, err := s.queue.SubmitMeta(kind, meta, run)
	if err != nil {
		return nil, err
	}
	s.watch(job)
	return job, nil
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

// acquireJob claims a tenant job slot charging bytes of queued payload,
// writing the 429 itself on rejection. The caller must release the slot
// exactly once (directly or via JobMeta.OnFinish); ok reports whether
// the slot was granted.
func (s *Server) acquireJob(w http.ResponseWriter, r *http.Request, bytes int64) (tenant string, release func(), ok bool) {
	tenant = tenantFrom(r)
	release, err := s.admission.AcquireJob(tenant, bytes)
	if err != nil {
		s.reject(w, err)
		return tenant, nil, false
	}
	return tenant, release, true
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

// shardingOptions turns a request's shard count into the WithSharding
// option; the request fans its shards over its own parallelism.
func shardingOptions(spec OptionSpec) []marioh.Option {
	if spec.Shards == 0 {
		return nil
	}
	return []marioh.Option{marioh.WithSharding(marioh.ShardingOptions{Shards: spec.Shards})}
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
	tenant, relJob, ok := s.acquireJob(w, r, int64(len(req.Source)))
	if !ok {
		return
	}

	job, err := s.submitMeta(JobTrain, JobMeta{Tenant: tenant, OnFinish: relJob}, func(ctx context.Context, job *Job) (any, error) {
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
	})
	if err != nil {
		relJob()
		s.writeError(w, errStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, job.Info())
}

// reconstructRun builds the workload shared by the sync path, the async
// path and batch entries.
func (s *Server) reconstructRun(opts []marioh.Option, m *marioh.Model, g *marioh.Graph) runFunc {
	return func(ctx context.Context, job *Job) (any, error) {
		ropts := append(append([]marioh.Option(nil), opts...),
			marioh.WithModel(m), marioh.WithProgress(s.publisher(job)))
		rec, err := marioh.New(ropts...)
		if err != nil {
			return nil, err
		}
		res, err := rec.Reconstruct(ctx, g)
		if err != nil {
			return nil, err
		}
		s.metrics.Stage("filter", res.Times.Filtering)
		s.metrics.Stage("search", res.Times.Bidirectional)
		if res.Shards > 0 {
			s.metrics.ShardRun(res.Shards)
		}
		return reconstructResult(res)
	}
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
	g, m, opts, err := s.reconstructInputs(req.Model, req.Target, req.Options)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	opts = append(opts, shardingOptions(req.Options)...)

	async := g.NumEdges() > s.cfg.SyncEdgeLimit
	if req.Async != nil {
		async = *req.Async
	}
	run := s.reconstructRun(opts, m, g)
	if async {
		tenant, relJob, ok := s.acquireJob(w, r, int64(len(req.Target)))
		if !ok {
			return
		}
		job, err := s.submitMeta(JobReconstruct, JobMeta{Tenant: tenant, OnFinish: relJob}, run)
		if err != nil {
			relJob()
			s.writeError(w, errStatus(err), err)
			return
		}
		s.writeJSON(w, http.StatusAccepted, job.Info())
		return
	}

	// Synchronous path: the tenant's job slot covers the request duration
	// (leading the computation or waiting on an identical one in flight).
	tenant, relJob, ok := s.acquireJob(w, r, int64(len(req.Target)))
	if !ok {
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
		job, err := s.queue.NewJobMeta(JobReconstruct, JobMeta{Tenant: tenant}, run)
		if err != nil {
			return nil, 0, err
		}
		s.watch(job)
		// fctx lives as long as any interested caller — the leader
		// disconnecting does not abort a computation others wait on.
		s.queue.RunInline(fctx, job)
		result, err := job.Result()
		if err != nil {
			return nil, 0, err
		}
		rr := result.(ReconstructResult)
		resp := ReconstructResponse{JobID: job.ID, Result: rr}
		return resp, resultCost(rr), nil
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is usually gone; 499-style close for the record.
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, err)
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

// reconstructInputs parses and resolves the shared parts of reconstruction
// requests: the target graph, the registry model, and the options.
func (s *Server) reconstructInputs(model, target string, spec OptionSpec) (*marioh.Graph, *marioh.Model, []marioh.Option, error) {
	if model == "" {
		return nil, nil, nil, errors.New("reconstruct: model is required (train first or PUT /v1/models/{name})")
	}
	if target == "" {
		return nil, nil, nil, errors.New("reconstruct: target graph is required")
	}
	g, err := parseGraph(target)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := s.registry.Get(model)
	if err != nil {
		return nil, nil, nil, err
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, m, opts, nil
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
	if req.Model == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("batch: model is required"))
		return
	}
	graphs := make([]*marioh.Graph, len(req.Targets))
	for i, t := range req.Targets {
		g, err := parseGraph(t)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("target %d: %w", i, err))
			return
		}
		graphs[i] = g
	}
	m, err := s.registry.Get(req.Model)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	opts, err := req.Options.Options()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts = append(opts, shardingOptions(req.Options)...)
	var queued int64
	for _, t := range req.Targets {
		queued += int64(len(t))
	}
	tenant, relJob, ok := s.acquireJob(w, r, queued)
	if !ok {
		return
	}

	job, err := s.submitMeta(JobBatch, JobMeta{Tenant: tenant, OnFinish: relJob}, func(ctx context.Context, job *Job) (any, error) {
		ropts := append(append([]marioh.Option(nil), opts...),
			marioh.WithModel(m), marioh.WithProgress(s.publisher(job)))
		rec, err := marioh.New(ropts...)
		if err != nil {
			return nil, err
		}
		results, err := rec.ReconstructBatch(ctx, graphs)
		if err != nil {
			return nil, err
		}
		out := BatchResult{Results: make([]ReconstructResult, len(results))}
		for i, res := range results {
			s.metrics.Stage("filter", res.Times.Filtering)
			s.metrics.Stage("search", res.Times.Bidirectional)
			if res.Shards > 0 {
				s.metrics.ShardRun(res.Shards)
			}
			rr, err := reconstructResult(res)
			if err != nil {
				return nil, err
			}
			out.Results[i] = rr
		}
		return out, nil
	})
	if err != nil {
		relJob()
		s.writeError(w, errStatus(err), err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, job.Info())
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

// handleJob implements GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, job.Info())
}

// handleJobCancel implements DELETE /v1/jobs/{id}: cancellation is
// asynchronous — the response reports the state at cancel time, and the
// job reaches "cancelled" once the workload observes its context. The
// job is fetched before cancelling so a concurrent history eviction
// cannot void the response snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.queue.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	s.queue.Cancel(id)
	s.writeJSON(w, http.StatusAccepted, job.Info())
}

// handleJobEvents implements GET /v1/jobs/{id}/events: a Server-Sent
// Events stream that replays the job's buffered progress events, follows
// with live ones, and terminates with a "done" event carrying the final
// status. Client disconnects just unsubscribe; they never affect the job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	s.streamJobEvents(w, r, job)
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
