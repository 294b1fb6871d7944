package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecording writes a summary-schema recording of the named
// benchmarks into dir.
func writeRecording(t *testing.T, dir, file string, names ...string) {
	t.Helper()
	var rows []string
	for _, n := range names {
		rows = append(rows, `{"name": "`+n+`", "after": {"ns_op": 100}}`)
	}
	body := `{"benchmarks": [` + strings.Join(rows, ", ") + `]}`
	if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiffPresentRetiredVanished covers the three fates of a baseline
// benchmark: present in the fresh run (compared), absent from the fresh
// run and from the newest committed recording (retired, never counted),
// and absent from the fresh run only (missing, which -missing=fail turns
// into a gate failure).
func TestDiffPresentRetiredVanished(t *testing.T) {
	dir := t.TempDir()
	writeRecording(t, dir, "BENCH_2026-01-01.json", "BenchmarkKept", "BenchmarkRetired", "BenchmarkVanished")
	writeRecording(t, dir, "BENCH_2026-01-01b.json", "BenchmarkKept", "BenchmarkVanished")
	writeRecording(t, dir, "BENCH_2026-02-01-loadgen.json", "BenchmarkServing")
	latest, err := latestRecording(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != "BENCH_2026-01-01b.json" {
		t.Fatalf("latestRecording = %s, want the re-recording BENCH_2026-01-01b.json", latest)
	}
	recorded, err := readBench(latest)
	if err != nil {
		t.Fatal(err)
	}

	// A cached runner baseline from before the benchmark was retired.
	baseline, err := parseBench(strings.NewReader(
		"BenchmarkKept-2 \t 10 \t 100 ns/op\n" +
			"BenchmarkRetired-2 \t 10 \t 100 ns/op\n" +
			"BenchmarkVanished-2 \t 10 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	current := map[string]float64{"BenchmarkKept": 150, "BenchmarkNew": 10}

	var out bytes.Buffer
	regressions, missed := diff(&out, baseline, current, recorded, 2)
	if regressions != 0 || missed != 1 {
		t.Fatalf("diff = %d regressions, %d missing; want 0 and 1 (only BenchmarkVanished)", regressions, missed)
	}
	rows := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n") {
		if name, _, ok := strings.Cut(l, " "); ok {
			rows[name] = l
		}
	}
	for name, tag := range map[string]string{
		"BenchmarkKept":     "1.50x",
		"BenchmarkRetired":  "(retired",
		"BenchmarkVanished": "(missing from fresh run)",
		"BenchmarkNew":      "(new benchmark)",
	} {
		if !strings.Contains(rows[name], tag) {
			t.Errorf("row %s = %q, want it tagged %q", name, rows[name], tag)
		}
	}

	// A present benchmark still regresses past the tolerance.
	if regressions, _ := diff(io.Discard, baseline, current, recorded, 1.2); regressions != 1 {
		t.Errorf("tolerance 1.2: %d regressions, want 1", regressions)
	}
	// Without a committed recording nothing is retired.
	if _, missed := diff(io.Discard, baseline, current, nil, 2); missed != 2 {
		t.Errorf("no recording: %d missing, want 2", missed)
	}
}
