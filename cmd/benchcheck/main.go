// Command benchcheck is the CI bench-regression gate: it parses raw
// `go test -bench` output and compares each benchmark's ns/op against
// the committed baseline JSONs (BENCH_serving.json, BENCH_optimized.json,
// BENCH_replica.json), failing when any benchmark is slower than the
// allowed ratio. The tolerance is deliberately loose (default 3×):
// shared CI runners are noisy, and the gate exists to catch "someone
// quadratically regressed the batch path", not 20% jitter.
//
// Usage:
//
//	go test -run '^$' -bench 'ServePredictBatch|Fig7' -benchtime 3x ./... | tee bench.txt
//	go run ./cmd/benchcheck -bench bench.txt -max-ratio 3 BENCH_serving.json BENCH_optimized.json
//
// Benchmarks present in the bench output but absent from every baseline
// (or vice versa) are reported and skipped; only intersecting names
// gate. Exit status: 0 ok, 1 regression, 2 usage/parse error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one line of go test -bench output, e.g.
//
//	BenchmarkServePredictBatch/linear/rows=256-8   362   3200506 ns/op   74.10 MB/s
//
// The -8 GOMAXPROCS suffix is optional (absent on 1-core runners).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// parseBenchOutput returns benchmark name (sans "Benchmark" prefix and
// cpu suffix) → ns/op. Repeated names (e.g. -count>1) keep the minimum:
// the best observed run is the fairest statement of current cost.
func parseBenchOutput(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := out[name]; !ok || ns < prev {
			out[name] = ns
		}
	}
	return out, sc.Err()
}

// parseBaseline extracts benchmark → ns_per_op from one committed
// BENCH_*.json. The repo's baselines have grown two shapes — an object
// keyed by benchmark name ({"benchmarks": {"BenchmarkX": {"ns_per_op": n}}})
// and a result list ({"results": [{"benchmark": "X", "ns_per_op": n}]}) —
// so the walk is structural: a JSON object carrying a numeric
// "ns_per_op" contributes when it names itself with a "benchmark" field
// or sits under a key starting with "Benchmark". Other objects with an
// ns_per_op (a before/after pair recording an optimisation's effect)
// are annotations, not baselines.
func parseBaseline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	walk(doc, "", out)
	return out, nil
}

func walk(node any, key string, out map[string]float64) {
	switch v := node.(type) {
	case map[string]any:
		ns, hasNs := v["ns_per_op"].(float64)
		if hasNs {
			name, ok := v["benchmark"].(string)
			if !ok && strings.HasPrefix(key, "Benchmark") {
				name = key
			}
			if name != "" {
				out[strings.TrimPrefix(name, "Benchmark")] = ns
			}
			return
		}
		for k, child := range v {
			walk(child, k, out)
		}
	case []any:
		for _, child := range v {
			walk(child, "", out)
		}
	}
}

// check compares current results against the merged baselines, writing
// the per-benchmark table to w. It returns the exit status main should
// use: 0 ok, 1 regression, 2 when nothing intersected (name drift must
// fail closed — a gate that silently compares nothing gates nothing).
func check(w io.Writer, current, baseline map[string]float64, baselineOf map[string]string, maxRatio float64) int {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed, compared := 0, 0
	for _, name := range names {
		base, ok := baseline[name]
		if !ok || base <= 0 {
			fmt.Fprintf(w, "%-10s %-48s no baseline\n", "SKIP", name)
			continue
		}
		compared++
		ratio := current[name] / base
		status := "ok"
		if ratio > maxRatio {
			status = "REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-10s %-48s %12.0f ns/op vs %12.0f baseline (%s)  ratio %.2f\n",
			status, name, current[name], base, baselineOf[name], ratio)
	}
	switch {
	case compared == 0:
		fmt.Fprintln(w, "benchcheck: no benchmark intersected a baseline — name drift? failing closed")
		return 2
	case regressed > 0:
		fmt.Fprintf(w, "benchcheck: %d of %d benchmark(s) regressed beyond %.1fx\n", regressed, compared, maxRatio)
		return 1
	default:
		fmt.Fprintf(w, "benchcheck: %d benchmark(s) within %.1fx of baseline\n", compared, maxRatio)
		return 0
	}
}

func main() {
	benchPath := flag.String("bench", "", "raw `go test -bench` output to check")
	maxRatio := flag.Float64("max-ratio", 3, "fail when current ns/op exceeds baseline by more than this factor")
	flag.Parse()
	if *benchPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck -bench bench.txt [-max-ratio 3] BASELINE.json...")
		os.Exit(2)
	}

	current, err := parseBenchOutput(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no benchmark results in %s\n", *benchPath)
		os.Exit(2)
	}
	baseline := make(map[string]float64)
	baselineOf := make(map[string]string)
	for _, path := range flag.Args() {
		b, err := parseBaseline(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		for name, ns := range b {
			baseline[name] = ns
			baselineOf[name] = path
		}
	}
	os.Exit(check(os.Stdout, current, baseline, baselineOf, *maxRatio))
}
