package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marioh"
	"marioh/internal/eval"
	"marioh/internal/server"
)

// serve-mixed request mix: requests come in blocks of repeatBlock, of
// which exactly repeatPerBlock (at seeded positions) repeat one of the
// poolSize pairs the warm-up computed; the rest are new pairs. Hits are
// the fast mode, so the median sits inside it and the tail inside the
// misses.
const (
	serveTargets   = 4
	poolSize       = 16
	repeatBlock    = 10
	repeatPerBlock = 7
	servedModel    = "served"
)

// dedupCacheBytes bounds the daemon's dedup cache (cmd/loadgen's
// -dedup-cache). At the default 64 MiB the cache would still be filling
// at the end of a run, an entry per miss, so peak memory would grow with
// the op count and read high whenever the box ran fast; 1 MiB, about a
// thousand entries, is full within seconds. The 16 pool pairs, each hit
// every few dozen requests, stay in its LRU.
const dedupCacheBytes = 1 << 20

// daemon is an in-process mariohd, booted the way cmd/loadgen boots it.
type daemon struct {
	base string
	stop func() error
}

func bootDaemon(nproc int) (*daemon, error) {
	root, hardStop := context.WithCancel(context.Background())
	serveCtx, stopServe := context.WithCancel(root)
	srv, err := server.New(root, server.Config{
		Addr:            "127.0.0.1:0",
		Workers:         nproc,
		QueueDepth:      2 * nproc,
		DedupCacheBytes: dedupCacheBytes,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		stopServe()
		hardStop()
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(serveCtx) }()
	if srv.Addr() == "" {
		stopServe()
		err := <-done
		hardStop()
		return nil, fmt.Errorf("mariohd failed to bind: %w", err)
	}
	return &daemon{
		base: "http://" + srv.Addr(),
		stop: func() error {
			stopServe()
			err := <-done
			hardStop()
			return err
		},
	}, nil
}

// newClient returns a client that is its own tenant on its own loopback
// connection, with retries off so every answer is the daemon's.
func (d *daemon) newClient(tenant string) (*server.Client, *http.Transport) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c := server.NewClient(d.base)
	c.Tenant = tenant
	c.MaxRetries = -1
	c.HTTP = &http.Client{Transport: tp}
	return c, tp
}

// train trains the served model over HTTP and waits for the job on its
// event stream, which ends when the job does.
func (d *daemon) train(c *server.Client, source string, epochs int) error {
	ctx := context.Background()
	job, err := c.Train(ctx, server.TrainRequest{
		Source: source, SaveAs: servedModel, Options: server.OptionSpec{Seed: trainSeed, Epochs: epochs},
	})
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Get(d.base + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	info, err := c.Job(ctx, job.ID)
	if err != nil {
		return err
	}
	var tr server.TrainResult
	return server.JobResult(info, &tr)
}

// scrape returns every /metrics sample summed over its labels.
func (d *daemon) scrape(c *server.Client) (map[string]float64, error) {
	resp, err := c.HTTP.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// servePair is one (target, options) pair of the request mix.
type servePair struct {
	target int
	seed   int64
}

// serveOp is the record of one request.
type serveOp struct {
	pair    int
	lat     time.Duration
	jobID   string
	sum     [32]byte
	compute float64 // filter + search seconds reported by the daemon
	start   time.Time
	slice   int // calibration slice of the timed phase it ran in
	err     error
}

// servePlan is serve-mixed's seeded request sequence.
type servePlan struct {
	seed    int64
	texts   []string             // graph text of each relabeled target
	graphs  []*marioh.Graph      // the same targets, parsed
	truths  []*marioh.Hypergraph // ground truth of each target
	corrupt func([]byte) []byte  // tests only: see runner.corrupt
}

// pair returns the pair of pair index k: new pairs cycle over the targets
// with a fresh option seed each.
func (p *servePlan) pair(k int) servePair {
	return servePair{target: k % len(p.texts), seed: p.seed*1_000_003 + int64(k) + 1}
}

// request returns the pair index of the i-th request: a pool pair at the
// block's seeded repeat positions, a pair of its own otherwise.
func (p *servePlan) request(i int) int {
	rng := rand.New(rand.NewSource(p.seed*7919 + int64(i/repeatBlock)))
	for _, pos := range rng.Perm(repeatBlock)[:repeatPerBlock] {
		if pos == i%repeatBlock {
			return rng.Intn(poolSize)
		}
	}
	return poolSize + i
}

func (p *servePlan) body(k int) server.ReconstructRequest {
	sp := p.pair(k)
	return server.ReconstructRequest{Model: servedModel, Target: p.texts[sp.target], Options: server.OptionSpec{Seed: sp.seed}}
}

// do issues request k on c and records it.
func (p *servePlan) do(c *server.Client, k int) serveOp {
	return doRequest(c, p.body(k), k, p.corrupt)
}

// doRequest issues one synchronous reconstruction and records its latency,
// job id and a digest of the returned hypergraph (altered by corrupt,
// when a test sets it).
func doRequest(c *server.Client, req server.ReconstructRequest, pair int, corrupt func([]byte) []byte) serveOp {
	op := serveOp{pair: pair, start: time.Now()}
	resp, _, err := c.Reconstruct(context.Background(), req)
	op.lat = time.Since(op.start)
	switch {
	case err != nil:
		op.err = err
	case resp == nil:
		op.err = errors.New("reconstruction was queued instead of served synchronously")
	default:
		op.jobID = resp.JobID
		out := []byte(resp.Result.Hypergraph)
		if corrupt != nil {
			out = corrupt(out)
		}
		op.sum = sha256.Sum256(out)
		op.compute = resp.Result.FilterSeconds + resp.Result.SearchSeconds
	}
	return op
}

// runServe is serve-mixed: nproc clients, each a distinct tenant on its
// own connection, in a closed loop of synchronous POST /v1/reconstruct
// calls against an in-process mariohd.
func runServe(r *runner) error {
	ds, err := makeInput(r.sc.serve, r.seed, serveTargets)
	if err != nil {
		return err
	}
	nproc := r.meta["nproc"].(int)
	plan := &servePlan{seed: r.seed, graphs: ds.targets, truths: ds.truths, corrupt: r.corrupt}
	for _, g := range ds.targets {
		text, err := graphText(g)
		if err != nil {
			return err
		}
		plan.texts = append(plan.texts, text)
	}
	var src bytes.Buffer
	if err := ds.src.Write(&src); err != nil {
		return err
	}
	r.meta["loop"] = "closed"
	r.meta["clients"] = nproc
	r.meta["dataset"] = fmt.Sprintf("%s (generation seed 1; %d targets with node ids permuted by the run seed)", r.sc.serve, serveTargets)
	r.meta["repeat_share"] = float64(repeatPerBlock) / repeatBlock

	// Each set-up boots a fresh daemon; the earlier ones are stopped once
	// timing is over, so no shutdown lands inside a sample.
	var booted []*daemon
	defer func() {
		for _, d := range booted {
			d.stop()
		}
	}()
	if err := r.setupK(9, func(int) error {
		d, err := bootDaemon(nproc)
		if err != nil {
			return err
		}
		booted = append(booted, d)
		admin, tp := d.newClient("admin")
		defer tp.CloseIdleConnections()
		return d.train(admin, src.String(), r.sc.epochs)
	}); err != nil {
		return err
	}
	for _, d := range booted[:len(booted)-1] {
		if err := d.stop(); err != nil {
			return err
		}
	}
	d := booted[len(booted)-1]
	booted = booted[len(booted)-1:]
	admin, adminTp := d.newClient("admin")
	defer adminTp.CloseIdleConnections()
	raw, err := admin.PullModel(context.Background(), servedModel)
	if err != nil {
		return err
	}
	model, err := marioh.LoadModel(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if r.traced {
		// Replay training on the source exactly as the daemon parsed it:
		// the text format orders hyperedges, and example order matters.
		parsed, err := marioh.ReadHypergraph(bytes.NewReader(src.Bytes()))
		if err != nil {
			return err
		}
		if err := r.checkTrainReplay(&input{src: parsed, srcGraph: parsed.Project()}, model); err != nil {
			return err
		}
	}

	clients := make([]*server.Client, nproc)
	for w := range clients {
		c, tp := d.newClient(fmt.Sprintf("tenant-%d", w))
		defer tp.CloseIdleConnections()
		clients[w] = c
	}
	// Warm-up: the first pass computes every pool pair once, filling the
	// dedup cache the repeats hit.
	refs := map[int][32]byte{}
	poolJobs := map[string]bool{}
	var jaccard float64
	for k := 0; k < poolSize; k++ {
		op := plan.do(clients[k%nproc], k)
		if op.err != nil {
			return fmt.Errorf("warm-up request %d: %w", k, op.err)
		}
		sp := plan.pair(k)
		want, h, err := reference(model, plan.graphs[sp.target], sp.seed)
		if err != nil {
			return err
		}
		refs[k] = sha256.Sum256(want)
		poolJobs[op.jobID] = true
		jaccard += eval.Jaccard(plan.truths[sp.target], h)
		if op.sum != refs[k] {
			r.opFailed("warm-up request %d: output differs from the serial reference", k)
		}
	}
	r.attempted += poolSize
	r.metrics["jaccard"] = jaccard / poolSize

	before, err := d.scrape(admin)
	if err != nil {
		return err
	}
	ops, p := r.serveLoop(plan, clients)
	after, err := d.scrape(admin)
	if err != nil {
		return err
	}
	r.meta["ops"] = len(ops)

	// Check every answer against the serial reference of its pair,
	// computed now, outside the timed phase, on nproc workers.
	if err := verifyServe(r, plan, model, ops, refs, nproc); err != nil {
		return err
	}
	// Every job id the timed phase introduced is one computation, a miss;
	// every other answer came from the dedup cache or a flight in progress.
	computed := map[string]bool{}
	for _, op := range ops {
		if op.err == nil && !poolJobs[op.jobID] {
			computed[op.jobID] = true
		}
	}
	r.meta["hit_share"] = 1 - float64(len(computed))/float64(len(ops))
	r.latencyMetrics(p)
	if r.traced {
		r.admissionMetrics(before, after)
		r.serveLayers(ops, poolJobs)
		var traced, untraced []time.Duration
		for i, op := range ops {
			if i%2 == 1 {
				traced = append(traced, op.lat)
			} else {
				untraced = append(untraced, op.lat)
			}
		}
		r.overhead(untraced, traced)
		sp := plan.pair(0)
		want, _, err := reference(model, plan.graphs[sp.target], sp.seed)
		if err != nil {
			return err
		}
		if err := r.sweepLibrary(plan.graphs[sp.target], model, sp.seed, want); err != nil {
			return err
		}
	}
	r.finishRSS()
	return nil
}

// serveLoop runs the clients for the run's duration, in slices of about
// calibEvery with the calibration kernel timed between them while every
// client waits, and returns every request's record, in issue order, with
// the phase.
func (r *runner) serveLoop(plan *servePlan, clients []*server.Client) ([]serveOp, *phase) {
	runtime.GC()
	m0 := readMem()
	p := &phase{cals: []float64{r.calibrate()}}
	var next atomic.Int64
	recs := make([][]serveOp, len(clients))
	idx := make([][]int, len(clients))
	for total := time.Duration(0); total < r.dur; {
		slice := len(p.walls)
		start := time.Now()
		deadline := start.Add(min(calibEvery, r.dur-total))
		var wg sync.WaitGroup
		for w, c := range clients {
			wg.Add(1)
			go func(w int, c *server.Client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					k := plan.request(i)
					var op serveOp
					if r.traced && i%2 == 1 {
						sp := r.tr.begin("server.POST /v1/reconstruct", i, -1)
						op = plan.do(c, k)
						r.tr.end(sp)
					} else {
						op = plan.do(c, k)
					}
					op.slice = slice
					recs[w] = append(recs[w], op)
					idx[w] = append(idx[w], i)
				}
			}(w, c)
		}
		wg.Wait()
		wall := time.Since(start)
		p.walls = append(p.walls, wall)
		total += wall
		p.cals = append(p.cals, r.calibrate())
	}
	mem := deltaOf(m0, readMem())
	n := int(next.Load())
	if r.traced && n > 0 {
		r.layer("marioh.alloc_mb_per_op", float64(mem.allocBytes)/1e6/float64(n))
		r.layer("marioh.gc_per_op", float64(mem.gcs)/float64(n))
	}
	ops := make([]serveOp, n)
	for w := range recs {
		for j, op := range recs[w] {
			ops[idx[w][j]] = op
		}
	}
	for _, op := range ops {
		p.add(op.lat, op.slice)
	}
	r.attempted += n
	return ops, p
}

// verifyServe compares every answer with its pair's serial reference.
func verifyServe(r *runner, plan *servePlan, model *marioh.Model, ops []serveOp, refs map[int][32]byte, workers int) error {
	var need []int
	seen := map[int]bool{}
	for _, op := range ops {
		if _, ok := refs[op.pair]; !ok && !seen[op.pair] && op.err == nil {
			seen[op.pair] = true
			need = append(need, op.pair)
		}
	}
	sums := make([][32]byte, len(need))
	errs := make([]error, len(need))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(need) {
					return
				}
				sp := plan.pair(need[j])
				want, _, err := reference(model, plan.graphs[sp.target], sp.seed)
				sums[j], errs[j] = sha256.Sum256(want), err
			}
		}()
	}
	wg.Wait()
	for j, k := range need {
		if errs[j] != nil {
			return errs[j]
		}
		refs[k] = sums[j]
	}
	for i, op := range ops {
		if op.err != nil {
			r.opFailed("request %d: %v", i, op.err)
			continue
		}
		if op.sum != refs[op.pair] {
			r.opFailed("request %d: output differs from the serial reference", i)
		}
	}
	return nil
}

// serveLayers records the server.* metrics: a request is a hit when its
// job_id was already answered by an earlier request, the warm-up's
// included.
func (r *runner) serveLayers(ops []serveOp, seen map[string]bool) {
	sorted := append([]serveOp(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	for _, op := range sorted {
		if op.err != nil {
			continue
		}
		if seen[op.jobID] {
			r.layer("server.hit_ms", ms(op.lat))
		} else {
			r.layer("server.miss_ms", ms(op.lat))
			r.layer("server.compute_ms", op.compute*1e3)
			r.layer("server.overhead_ms", ms(op.lat)-op.compute*1e3)
		}
		seen[op.jobID] = true
	}
}

// admissionMetrics records the admission.* metrics from two /metrics
// scrapes around the measured requests.
func (r *runner) admissionMetrics(before, after map[string]float64) {
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("marioh_dedup_hits_total"), delta("marioh_dedup_misses_total")
	if hits+misses > 0 {
		r.metrics["admission.dedup_hit_ratio"] = hits / (hits + misses)
	}
	r.metrics["admission.dedup_waiters"] = delta("marioh_dedup_waiters_total")
	r.metrics["admission.dedup_bytes"] = after["marioh_dedup_bytes"]
	r.metrics["admission.rejected"] = delta("marioh_admission_rejected_total")
}

// graphText serializes a graph in the wire format of a request target.
func graphText(g *marioh.Graph) (string, error) {
	var b bytes.Buffer
	if err := g.Write(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}
