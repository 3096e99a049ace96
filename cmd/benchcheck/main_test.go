package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	path := write(t, "bench.txt", `goos: linux
goarch: amd64
BenchmarkServePredictBatch/linear/rows=256-8   362   3200506 ns/op   74.10 MB/s
BenchmarkFig7BlockVsQuery 	       3	 199724361 ns/op
BenchmarkFig7BlockVsQuery 	       3	 180000000 ns/op
PASS
`)
	got, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["ServePredictBatch/linear/rows=256"] != 3200506 {
		t.Errorf("batch ns/op = %v", got["ServePredictBatch/linear/rows=256"])
	}
	// Repeated runs keep the fastest.
	if got["Fig7BlockVsQuery"] != 180000000 {
		t.Errorf("repeated bench kept %v, want the minimum", got["Fig7BlockVsQuery"])
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestParseBaselineBothShapes(t *testing.T) {
	// The "results" list shape (BENCH_serving.json).
	list := write(t, "list.json", `{
	  "results": [
	    {"benchmark": "ServePredictBatch/linear/rows=256", "ns_per_op": 3251999, "rows_per_s": 78721}
	  ]}`)
	// The name-keyed object shape (BENCH_optimized.json).
	keyed := write(t, "keyed.json", `{
	  "benchmarks": {
	    "BenchmarkFig7BlockVsQuery": {"ns_per_op": 185515269, "speedup_vs_baseline": 4.68}
	  }}`)
	for path, want := range map[string]struct {
		name string
		ns   float64
	}{
		list:  {"ServePredictBatch/linear/rows=256", 3251999},
		keyed: {"Fig7BlockVsQuery", 185515269},
	} {
		got, err := parseBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if got[want.name] != want.ns {
			t.Errorf("%s: %q = %v, want %v (parsed: %v)", path, want.name, got[want.name], want.ns, got)
		}
	}
}

// TestParseCommittedReplicaBaseline parses the committed
// BENCH_replica.json: its before/after effect records carry ns_per_op
// too, but they are annotations and must not surface as benchmarks.
func TestParseCommittedReplicaBaseline(t *testing.T) {
	got, err := parseBaseline(filepath.Join("..", "..", "BENCH_replica.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{
		"BundlePush",
		"BundlePushFanout3",
		"BundlePushWide/gzip",
		"BundlePushWide/identity",
		"ReplicaPredictBatch/rows=256",
		"ReplicaProvenance",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("parsed benchmarks %v, want %v", names, want)
	}
}

func TestCheckGate(t *testing.T) {
	baseline := map[string]float64{"X": 1_000_000, "Y": 900}
	of := map[string]string{"X": "b.json", "Y": "b.json"}
	for _, tc := range []struct {
		name     string
		current  map[string]float64
		wantExit int
	}{
		{"within tolerance", map[string]float64{"X": 2_900_000, "Y": 1_000}, 0},
		{"regression", map[string]float64{"X": 10_000_000, "Y": 1_000}, 1},
		{"improvement", map[string]float64{"X": 100_000}, 0},
		{"no intersection fails closed", map[string]float64{"Z": 5}, 2},
	} {
		var buf strings.Builder
		if got := check(&buf, tc.current, baseline, of, 3); got != tc.wantExit {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.wantExit, buf.String())
		}
	}
}
