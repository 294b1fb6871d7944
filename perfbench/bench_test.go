package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"marioh"
)

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs the benchmark in-process on the smoke datasets and parses
// its last output line.
func runCLI(t *testing.T, workload, trace string) (int, printed, string) {
	t.Helper()
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--smoke"}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: no result line (exit %d): %v\nstderr: %s", workload, trace, code, err, stderr.String())
	}
	return code, res, stderr.String()
}

// TestSmokeEveryWorkload runs every workload with tiny ops, untraced and
// traced, and checks that each prints every metric of its kind with the
// right unit, and that no op fails.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, res, stderr := runCLI(t, w.name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, correct %v, %d/%d failed\n%s", w.name, trace, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok || m.Value == nil:
					t.Errorf("%s trace %s: metric %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
					t.Errorf("%s trace %s: metric %s = %v", w.name, trace, d.name, *m.Value)
				}
			}
			if trace == "0" {
				for _, name := range []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "jaccard"} {
					if v := *res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
					}
				}
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailed alters every output before it is
// checked and expects failed ops, correct=false and a non-zero exit.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	for _, name := range []string{"eu-dense", "serve-mixed"} {
		t.Setenv("PERFBENCH_OUT", t.TempDir())
		w, _ := lookup(name)
		r, err := newRunner(name, 2, 0.2, false, true, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		r.corrupt = func(b []byte) []byte { return append(append([]byte(nil), b...), "0 1\n"...) }
		var stdout bytes.Buffer
		code := r.execute(w, &stdout)
		r.cleanup()
		if code == 0 {
			t.Errorf("%s: exit 0 with corrupted outputs", name)
		}
		if r.failed == 0 {
			t.Errorf("%s: no failed op with corrupted outputs", name)
		}
		if strings.Contains(stdout.String(), `"correct":true`) {
			t.Errorf("%s: result claims correct with corrupted outputs", name)
		}
	}
}

// TestTracedReplayEqualsUntraced checks that the round-by-round and the
// sharded replays reproduce the public API's bytes on eu-dense's input
// and, through WithSharding, on a many-component input.
func TestTracedReplayEqualsUntraced(t *testing.T) {
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	for _, tc := range []struct {
		dataset string
		sharded bool
	}{{smokeScale.eu, false}, {"hosts", true}} { // hosts: many components
		r, err := newRunner("replay", 5, 1, true, true, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.cleanup()
		in, err := makeInput(tc.dataset, r.seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		model, err := r.trainModel(in)
		if err != nil {
			t.Fatal(err)
		}
		opts := []marioh.Option{marioh.WithSeed(r.seed), marioh.WithModel(model)}
		if tc.sharded {
			opts = append(opts, marioh.WithSharding(marioh.ShardingOptions{}))
		}
		rec, err := marioh.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Reconstruct(context.Background(), in.targets[0])
		if err != nil {
			t.Fatal(err)
		}
		want := encode(res.Hypergraph)
		rounds, _ := r.replayRounds(0, in.targets[0], model, r.seed)
		if !bytes.Equal(encode(rounds), want) {
			t.Errorf("%s: round replay differs from the untraced output", tc.dataset)
		}
		sharded, _ := r.replaySharded(0, in.targets[0], model, r.seed)
		if !bytes.Equal(encode(sharded), want) {
			t.Errorf("%s: sharded replay differs from the untraced output", tc.dataset)
		}
		if !bytes.Equal(mustModelBytes(t, r.replayTrain(in.src, in.srcGraph, trainSeed)), mustModelBytes(t, model)) {
			t.Errorf("%s: training replay differs from the trained model", tc.dataset)
		}
	}
}

func mustModelBytes(t *testing.T, m *marioh.Model) []byte {
	t.Helper()
	b, err := modelBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workloads and
// metrics in step with what the program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string }
	}
	var loose map[string]json.RawMessage
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(loose["workloads"], &b.Workloads); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(loose["end_to_end"], &b.EndToEnd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(loose["per_layer"], &b.PerLayer); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i)
	}
	if v, pct, beyond := tail(s); v != 179 || pct != tailCap || beyond != 20 {
		t.Fatalf("tail = %v at p%v with %d beyond, want 179 at p90 with 20", v, pct, beyond)
	}
	if v, pct, beyond := tail(s[:50]); v != 39 || pct != 80 || beyond != 10 {
		t.Fatalf("50-op tail = %v at p%v with %d beyond, want 39 at p80 with 10", v, pct, beyond)
	}
	if v, pct, _ := tail(s[:15]); v != 7 || pct != 50 {
		t.Fatalf("short run tail = %v at p%v, want the median 7 at p50", v, pct)
	}
}

// TestPhaseScalesBySurroundingKernelTimes checks that a slice's times are
// scaled by the mean of the kernel samples on either side of it.
func TestPhaseScalesBySurroundingKernelTimes(t *testing.T) {
	p := &phase{
		walls: []time.Duration{time.Second, time.Second},
		cals:  []float64{refCalibMs, refCalibMs, 3 * refCalibMs},
	}
	p.add(100*time.Millisecond, 0)
	p.add(100*time.Millisecond, 1)
	raw, scaled := p.latencies()
	if raw[0] != 100 || raw[1] != 100 || scaled[0] != 50 || scaled[1] != 100 {
		t.Fatalf("latencies raw %v scaled %v, want [100 100] and [50 100]", raw, scaled)
	}
	if w, s := p.wall(); w != 2 || s != 1.5 {
		t.Fatalf("wall raw %v scaled %v, want 2 and 1.5", w, s)
	}
}
