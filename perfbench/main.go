// Command perfbench is the repository's benchmark: two workloads driven
// through the public APIs (marioh.Reconstructor and an in-process
// mariohd), end-to-end metrics from an untraced run, and
// per-layer metrics from a separate traced run that replays each op
// through the modules' public functions. README.md describes the
// workloads, the metrics and how to run it.
//
//	bash perfbench/run.sh --workload eu-dense --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before
// it carries the run's metadata.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload.
type workload struct {
	name, why string
	run       func(*runner) error
}

var workloads = []workload{
	{"eu-dense", "densest paper analog: clique enumeration, features, MLP and the Phase 1/2 search carry the op", runEU},
	{"serve-mixed", "in-process mariohd with repeated and new requests: HTTP, JSON, dedup cache and small reconstructions", runServe},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload (or the steadiness report) and
// returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: inputs are a pure function of it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness report: run every selected workload this many times (seeds 1..n) and print medians and quartiles")
	smoke := fs.Bool("smoke", false, "tiny datasets and 3 training epochs (tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		return 2
	}
	w, ok := lookup(*name)
	if *steady > 0 && (ok || *name == "") {
		return steadiness(ctx, *name, *steady, *seconds, *trace, *smoke, stdout, stderr)
	}
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	r, err := newRunner(w.name, *seed, *seconds, *trace == 1, *smoke, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer r.cleanup()
	return r.execute(w, stdout)
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runner is the state of one benchmark run.
type runner struct {
	seed   int64
	dur    time.Duration
	traced bool
	sc     scale
	out    string // build and trace output directory
	work   string // this run's scratch directory, removed at the end
	stderr io.Writer

	tr     *tracer              // traced runs only
	layers map[string][]float64 // per-layer samples, traced runs only

	cal        *calibrator // speed calibration (calib.go)
	calSamples []float64   // every kernel time of the run, in ms

	metrics   map[string]float64
	meta      map[string]any
	attempted int
	failed    int
	problems  []string

	// corrupt, set only by tests, alters every output before it is
	// checked, to prove that a wrong output is counted as failed.
	corrupt func([]byte) []byte
}

func newRunner(name string, seed int64, seconds float64, traced, smoke bool, stderr io.Writer) (*runner, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	r := &runner{
		seed: seed, traced: traced,
		dur: time.Duration(seconds * float64(time.Second)),
		sc:  fullScale, out: out, work: work, stderr: stderr, cal: cal,
		metrics: map[string]float64{},
		meta: map[string]any{
			"workload":   name,
			"seed":       seed,
			"seconds":    seconds,
			"trace":      traced,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
	}
	if smoke {
		r.sc = smokeScale
		r.meta["smoke"] = true
	}
	if traced {
		r.tr = newTracer()
		r.layers = map[string][]float64{}
	}
	return r, nil
}

func (r *runner) cleanup() {
	os.RemoveAll(r.work)
	_ = r.cal.close() // a failed unmap leaves nothing for the run to act on
}

// execute runs the workload and prints the metadata and result lines.
// It exits non-zero when an op failed or an output was wrong.
func (r *runner) execute(w workload, stdout io.Writer) int {
	if err := w.run(r); err != nil {
		fmt.Fprintf(r.stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
		r.finishLayers()
		path := filepath.Join(r.out, "perfbench-trace", fmt.Sprintf("%s-seed%d.json", w.name, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(r.stderr, "perfbench: writing spans:", err)
			return 1
		}
		r.meta["spans_file"] = path
		for _, s := range r.tr.summary() {
			fmt.Fprintf(r.stderr, "span %-40s n=%-6d total %10.2f ms  self %10.2f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.problem("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	r.meta["problems"] = r.problems
	if len(r.calSamples) > 0 {
		q1, med, q3 := quartiles(r.calSamples)
		r.meta["calibration_ms"] = map[string]any{"reference": refCalibMs, "samples": len(r.calSamples), "q1": q1, "median": med, "q3": q3}
	}
	correct := r.failed == 0 && len(r.problems) == 0
	metaLine, err := json.Marshal(map[string]any{"meta": r.meta})
	if err != nil {
		fmt.Fprintln(r.stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(r.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", metaLine, res)
	if !correct {
		for _, p := range r.problems {
			fmt.Fprintln(r.stderr, "perfbench:", p)
		}
		return 1
	}
	return 0
}

// problem records a failed check; at most 20 are kept verbatim.
func (r *runner) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further problems omitted")
	}
}

// opFailed counts one failed op.
func (r *runner) opFailed(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// same reports whether an output equals its reference, counting a
// mismatch as a failed op.
func (r *runner) same(got, want []byte, what string) bool {
	if r.corrupt != nil {
		got = r.corrupt(got)
	}
	if string(got) != string(want) {
		r.opFailed("%s: output differs from the serial reference (%d vs %d bytes)", what, len(got), len(want))
		return false
	}
	return true
}

// setupK times the deterministic set-up k times, with the calibration
// kernel timed before the first and after every one, and records the
// median scaled sample as setup_s; the raw and scaled samples go into
// the metadata. A traced run, which does not report setup_s, sets up
// once.
func (r *runner) setupK(k int, fn func(i int) error) error {
	if r.traced {
		k = 1
	}
	raw := make([]float64, 0, k)
	scaled := make([]float64, 0, k)
	before := r.calibrate()
	for i := 0; i < k; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		after := r.calibrate()
		raw = append(raw, d)
		scaled = append(scaled, d*speedFactor(before, after))
		before = after
	}
	r.metrics["setup_s"] = median(scaled)
	r.meta["setup_samples_s"] = raw
	r.meta["setup_samples_scaled_s"] = scaled
	r.raw("setup_s", median(raw))
	return nil
}

// raw records the unscaled value of a scaled end-to-end metric in the
// metadata.
func (r *runner) raw(name string, v float64) {
	m, _ := r.meta["raw"].(map[string]float64)
	if m == nil {
		m = map[string]float64{}
		r.meta["raw"] = m
	}
	m[name] = v
}

// loop runs op back to back for the run's duration — a closed loop with
// one caller — after a full GC, timing the calibration kernel between
// slices of about calibEvery. op returns its latency and the time it
// spent on checks after the timed call; check time is taken off the
// slice's wall time, so ops_per_s counts only the program's work.
func (r *runner) loop(op func(i int) (lat, check time.Duration)) *phase {
	runtime.GC()
	p := &phase{cals: []float64{r.calibrate()}}
	var total, inSlice, paused time.Duration
	start := time.Now()
	for i := 0; total+inSlice < r.dur; i++ {
		l, c := op(i)
		p.add(l, len(p.walls))
		paused += c
		inSlice = time.Since(start) - paused
		if inSlice >= calibEvery || total+inSlice >= r.dur {
			p.walls = append(p.walls, inSlice)
			total, inSlice = total+inSlice, 0
			p.cals = append(p.cals, r.calibrate())
			start, paused = time.Now(), 0
		}
	}
	r.attempted += len(p.lats)
	return p
}

// latencyMetrics records op_p50_ms, op_tail_ms and ops_per_s from the
// scaled latencies and wall time, the raw ones in the metadata, and
// states the tail's percentile and sample count.
func (r *runner) latencyMetrics(p *phase) {
	raw, scaled := p.latencies()
	rawWall, scaledWall := p.wall()
	n := float64(len(p.lats))
	r.metrics["op_p50_ms"] = median(scaled)
	v, pct, beyond := tail(scaled)
	r.metrics["op_tail_ms"] = v
	r.metrics["ops_per_s"] = n / scaledWall
	rawTail, _, _ := tail(raw)
	r.raw("op_p50_ms", median(raw))
	r.raw("op_tail_ms", rawTail)
	r.raw("ops_per_s", n/rawWall)
	r.meta["ops"] = len(p.lats)
	r.meta["tail_percentile"] = pct
	r.meta["tail_samples_beyond"] = beyond
	r.meta["phase_wall_s"] = rawWall
	r.meta["slices"] = len(p.walls)
}

// finishRSS records peak_rss_mb.
func (r *runner) finishRSS() { r.metrics["peak_rss_mb"] = peakRSSMB() }

// layer adds one per-op sample of a per-layer metric.
func (r *runner) layer(name string, v float64) { r.layers[name] = append(r.layers[name], v) }

// finishLayers reduces every per-layer metric's samples to their median.
func (r *runner) finishLayers() {
	names := make([]string, 0, len(r.layers))
	for n := range r.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := map[string]int{}
	for _, n := range names {
		r.metrics[n] = median(r.layers[n])
		counts[n] = len(r.layers[n])
	}
	r.meta["layer_samples"] = counts
}
