package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs each selected workload n times, with seeds 1..n, as
// child processes of this binary, and prints every metric's median,
// quartiles and spread — the distance between the quartiles as a share of
// the median, the figure BENCHMARK.json's bounds are set against.
func steadiness(ctx context.Context, only string, n int, seconds float64, trace int, smoke bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for seed := 1; seed <= n; seed++ {
			args := []string{"--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace)}
			if smoke {
				args = append(args, "--smoke")
			}
			var out bytes.Buffer
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = &out, io.Discard
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
				code = 1
				continue
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
				code = 1
				continue
			}
			for name, m := range res.Metrics {
				if _, ok := values[name]; !ok {
					order = append(order, name)
				}
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
				if v, ok := res.raw[name]; ok {
					rawName := "raw " + name
					if _, ok := values[rawName]; !ok {
						order = append(order, rawName)
					}
					values[rawName] = append(values[rawName], v)
					units[rawName] = m.Unit
				}
			}
		}
		sort.Strings(order)
		fmt.Fprintf(stdout, "%s: %d runs of %gs\n", w.name, n, seconds)
		fmt.Fprintf(stdout, "  %-32s %-11s %12s %12s %12s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "runs, by seed")
		for _, name := range order {
			q1, med, q3 := quartiles(values[name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			var runs []string
			for _, v := range values[name] {
				runs = append(runs, strconv.FormatFloat(v, 'g', 4, 64))
			}
			fmt.Fprintf(stdout, "  %-32s %-11s %12.6g %12.6g %12.6g %8.4f  %s\n", name, units[name], med, q1, q3, spread, strings.Join(runs, " "))
		}
	}
	return code
}

type resultLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	raw map[string]float64 // unscaled values, from the metadata line
}

// lastResult parses the result object on the last line of a run's output
// and the unscaled values on the metadata line before it.
func lastResult(out []byte) (resultLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing the result line: %w", err)
	}
	if len(lines) > 1 {
		var meta struct {
			Meta struct {
				Raw map[string]float64 `json:"raw"`
			} `json:"meta"`
		}
		if json.Unmarshal([]byte(lines[len(lines)-2]), &meta) == nil {
			res.raw = meta.Meta.Raw
		}
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported correct=false")
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}
