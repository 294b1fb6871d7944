// Command benchdiff enforces the repo's benchmark-regression gate: it
// compares a fresh substrate benchmark run against the latest committed
// BENCH_<date>.json recording and fails (or warns) when a benchmark got
// slower than the tolerance allows.
//
// Both inputs accept plain `go test -bench` output, the test2json event
// stream produced by `go test -bench -json` (the format `make bench-json`
// records), or the curated summary schema of the committed BENCH files
// ({"benchmarks": [{"name": ..., "after": {"ns_op": ...}}]}). Typical CI
// use:
//
//	go test -run '^$' -bench 'HasEdge|MaximalCliques' -benchtime=100x -json . |
//	    go run ./cmd/benchdiff -against latest -tolerance 2 -warn-only=false
//
// Ratios are per-op (ns/op), so recordings and fresh runs may use
// different -benchtime values. Benchmarks present only in the fresh run
// are reported as new and never fail the gate. A baseline benchmark
// missing from the fresh run is retired, and never fails the gate, when
// the newest committed recording in -dir lacks it too: the change that
// removed it re-recorded the suite. Otherwise it is missing, governed by
// -missing: it warns by default (PR mode) and fails the gate with
// -missing=fail (main mode) — a silently vanished benchmark is a silently
// shrunken perf gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result line; the -N GOMAXPROCS suffix
// is stripped so recordings from machines with different core counts
// compare.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

// testEvent is the subset of a test2json event benchdiff needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// summaryFile is the hand-curated recording schema used by the committed
// BENCH_<date>.json trajectory files: a benchmarks array with ns_op
// readings (the "after" block when the file records a before/after pair).
type summaryFile struct {
	Benchmarks []struct {
		Name  string  `json:"name"`
		NsOp  float64 `json:"ns_op"`
		After *struct {
			NsOp float64 `json:"ns_op"`
		} `json:"after"`
	} `json:"benchmarks"`
}

// parseBench extracts benchmark name → ns/op from r, accepting a summary
// recording, a test2json stream, or plain `go test -bench` output.
// Repeated benchmarks keep the fastest run (the standard noise-resistant
// choice).
func parseBench(r io.Reader) (map[string]float64, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var summary summaryFile
	if err := json.Unmarshal(raw, &summary); err == nil && len(summary.Benchmarks) > 0 {
		out := map[string]float64{}
		for _, b := range summary.Benchmarks {
			ns := b.NsOp
			if b.After != nil {
				ns = b.After.NsOp
			}
			if b.Name != "" && ns > 0 {
				out[b.Name] = ns
			}
		}
		return out, nil
	}

	// Reassemble the text stream first: test2json may split one benchmark
	// result line across several Output events, so fragments must be
	// concatenated before line-wise matching.
	var text strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					text.WriteString(ev.Output)
				}
				continue
			}
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		if old, ok := out[m[1]]; !ok || ns < old {
			out[m[1]] = ns
		}
	}
	return out, nil
}

// latestRecording finds the lexicographically greatest BENCH_*.json in
// dir — the naming scheme makes that the newest date. Serving-latency
// recordings from cmd/loadgen (BENCH_<date>-loadgen.json) measure wall
// time of HTTP round-trips, not substrate ns/op, so they never become
// the substrate baseline.
func latestRecording(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	kept := matches[:0]
	for _, m := range matches {
		if !strings.HasSuffix(m, "-loadgen.json") {
			kept = append(kept, m)
		}
	}
	if len(kept) == 0 {
		return "", fmt.Errorf("no BENCH_*.json recordings in %s", dir)
	}
	sort.Strings(kept)
	return kept[len(kept)-1], nil
}

// readBench parses the recording at path.
func readBench(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// diff prints the baseline/fresh comparison to w and counts the
// benchmarks slower than tolerance and those missing from the fresh run.
// A baseline benchmark absent from both current and recorded, the newest
// committed recording, is retired rather than missing; a nil recorded
// retires nothing.
func diff(w io.Writer, baseline, current, recorded map[string]float64, tolerance float64) (regressions, missed int) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-40s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, name := range names {
		old := baseline[name]
		cur, ok := current[name]
		if !ok {
			if _, kept := recorded[name]; recorded != nil && !kept {
				fmt.Fprintf(w, "%-40s %14.1f %14s %8s  (retired: absent from the latest recording)\n", name, old, "-", "-")
				continue
			}
			fmt.Fprintf(w, "%-40s %14.1f %14s %8s  (missing from fresh run)\n", name, old, "-", "-")
			missed++
			continue
		}
		ratio := cur / old
		verdict := ""
		if ratio > tolerance {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %7.2fx%s\n", name, old, cur, ratio, verdict)
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s  (new benchmark)\n", name, "-", current[name], "-")
		}
	}
	return regressions, missed
}

func run() (int, error) {
	against := flag.String("against", "latest", `baseline recording ("latest" = newest BENCH_*.json in -dir)`)
	dir := flag.String("dir", ".", "directory searched for recordings when -against=latest")
	fresh := flag.String("new", "-", `fresh benchmark results ("-" = stdin)`)
	tolerance := flag.Float64("tolerance", 2.0, "maximum allowed slowdown ratio (new/old)")
	warnOnly := flag.Bool("warn-only", false, "report regressions but always exit 0")
	missing := flag.String("missing", "warn", `baseline benchmarks absent from the fresh run: "warn" or "fail"`)
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *tolerance <= 0 {
		return 2, fmt.Errorf("tolerance %v must be > 0", *tolerance)
	}
	if *missing != "warn" && *missing != "fail" {
		return 2, fmt.Errorf(`-missing must be "warn" or "fail", got %q`, *missing)
	}

	latest, latestErr := latestRecording(*dir)
	baselinePath := *against
	if baselinePath == "latest" {
		if latestErr != nil {
			return 1, latestErr
		}
		baselinePath = latest
	}
	baseline, err := readBench(baselinePath)
	if err != nil {
		return 1, err
	}
	if len(baseline) == 0 {
		return 1, fmt.Errorf("no benchmark results in baseline %s", baselinePath)
	}

	var nr io.Reader = os.Stdin
	if *fresh != "-" {
		f, err := os.Open(*fresh)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		nr = f
	}
	current, err := parseBench(nr)
	if err != nil {
		return 1, err
	}
	if len(current) == 0 {
		return 1, fmt.Errorf("no benchmark results in fresh input")
	}

	// With no committed recording in -dir, nothing can be retired.
	var recorded map[string]float64
	if latestErr == nil {
		if recorded, err = readBench(latest); err != nil {
			return 1, err
		}
	}

	fmt.Printf("benchdiff: baseline %s, tolerance %.2fx\n", baselinePath, *tolerance)
	regressions, missed := diff(os.Stdout, baseline, current, recorded, *tolerance)

	failed := false
	if missed > 0 {
		fmt.Printf("benchdiff: %d baseline benchmark(s) missing from the fresh run\n", missed)
		if *missing == "fail" {
			fmt.Println("benchdiff: failing (-missing=fail): a benchmark removed or renamed without re-recording the suite silently shrinks the gate")
			failed = true
		} else {
			fmt.Println("benchdiff: warning only (-missing=warn); main builds run with -missing=fail")
		}
	}
	if regressions > 0 {
		fmt.Printf("benchdiff: %d benchmark(s) regressed beyond %.2fx\n", regressions, *tolerance)
		if *warnOnly {
			fmt.Println("benchdiff: warn-only mode, not failing on regressions")
		} else {
			failed = true
		}
	}
	if failed {
		return 1, nil
	}
	if regressions == 0 {
		fmt.Println("benchdiff: no regressions")
	}
	return 0, nil
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(code)
}
