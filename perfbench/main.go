package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/metrics"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the gated metrics every workload reports from its
// untraced run; BENCHMARK.json lists exactly these.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
}

// layerMetric is one per-layer metric: the end-to-end metric it should
// move, and on which workload it is measured. A layer a workload does
// not exercise reads 0 there.
type layerMetric struct {
	name, unit, workload, moves string
}

// layers are the per-layer metrics of the traced run; BENCHMARK.json
// lists exactly these names.
var layers = []layerMetric{
	{"gateway.batch_self_ms", "ms", "serve", "ops_per_s (batch share of the round)"},
	{"gateway.point_self_ms", "ms", "serve", "point_p50_ms"},
	{"gateway.upstream_batch_ms", "ms", "serve", "batch_p50_ms"},
	{"gateway.upstream_point_ms", "ms", "serve", "point_p50_ms"},
	{"replica.batch_ms", "ms", "serve", "batch_p50_ms and ops_per_s"},
	{"replica.point_ms", "ms", "serve", "point_p50_ms"},
	{"transport.batch_ms", "ms", "serve", "batch_p50_ms"},
	{"transport.point_ms", "ms", "serve", "point_p50_ms"},
	{"ml.predict_lin_ms", "ms", "serve", "floor under replica.batch_ms"},
	{"ml.predict_mlp_ms", "ms", "serve", "batch_p90_ms"},
	{"gateway.retries", "count", "serve", "failed_ratio (expect 0)"},
	{"gateway.backend_share", "ratio", "serve", "none (expect 0.5)"},
	{"daemon.ingest_ms", "ms", "write-loop", "ops_per_s"},
	{"daemon.train_ms", "ms", "write-loop", "ops_per_s"},
	{"daemon.retention_ms", "ms", "write-loop", "ops_per_s"},
	{"daemon.compaction_ms", "ms", "write-loop", "ops_per_s"},
	{"daemon.remainder_ms", "ms", "write-loop", "none: Run wall time per tick not covered by the four phases"},
	{"wal.append_ms", "ms", "write-loop", "ops_per_s"},
	{"wal.syncfs_ms", "ms", "write-loop", "ops_per_s"},
	{"wal.cohort_frames", "count", "write-loop", "ops_per_s (more frames per flush, fewer flushes)"},
	{"adaptive.train_share", "ratio", "write-loop", "ops_per_s (changes only with training decisions)"},
	{"adaptive.accept_ratio", "ratio", "write-loop", "ops_per_s (changes only with training decisions)"},
	{"adaptive.releases", "count", "write-loop", "ops_per_s (changes only with training decisions)"},
	{"durable.open_ms", "ms", "write-loop", "recovery_s"},
	{"replica.push_ms", "ms", "write-loop, replica-sync", "ops_per_s and cpu_ms_per_op on replica-sync"},
	{"replica.push_bytes", "bytes", "replica-sync", "ops_per_s, cpu_ms_per_op, allocs_per_op"},
	{"publisher.self_ms", "ms", "replica-sync", "ops_per_s, cpu_ms_per_op, allocs_per_op"},
	{"store.encode_us", "us", "replica-sync", "ops_per_s, cpu_ms_per_op, allocs_per_op"},
	{"store.canonical_us", "us", "replica-sync", "ops_per_s, cpu_ms_per_op, allocs_per_op"},
	{"store.digest_us", "us", "replica-sync", "ops_per_s, cpu_ms_per_op, allocs_per_op"},
	{"experiments.fig6_s", "s", "eval-sweep", "ops_per_s"},
	{"experiments.fig7_s", "s", "eval-sweep", "ops_per_s"},
	{"experiments.fig8_s", "s", "eval-sweep", "ops_per_s"},
	{"parallel.busy_share", "ratio", "eval-sweep", "ops_per_s and cpu_ms_per_op"},
	{"runtime.gc_cpu_share", "ratio", "all", "cpu_ms_per_op and allocs_per_op"},
	{"trace.overhead_share", "ratio", "all", "none: 1 - traced/untraced ops_per_s"},
}

// env is what every workload receives.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string // scratch directory inside the checkout
	rec     *recorder
}

// report is what every workload returns.
type report struct {
	e2e    map[string]metric // gated metrics plus workload-specific extras
	layers map[string]metric // traced run only
	ops    *opLedger
	failed []string // output checks that failed
	lines  []string // extra report lines
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, ops: newOpLedger()}
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// addMeter records the gated metrics of a timed phase and its set-up
// (the set-up times and the calibrations made beside them), with the
// raw figures behind the scaled ones.
func (r *report) addMeter(m *meter, setups []float64, setupCal *calibrator) {
	r.e2e["setup_s"] = metric{median(setups) / setupCal.slowdown(), "s"}
	r.e2e["ops_per_s"] = metric{m.opsPerSec(), "1/s"}
	r.e2e["cpu_ms_per_op"] = metric{m.cpuMSPerOp(), "ms"}
	r.e2e["allocs_per_op"] = metric{m.allocsPerOp(), "count"}
	r.e2e["raw_setup_s"] = metric{median(setups), "s"}
	r.e2e["raw_ops_per_s"] = metric{m.rawOpsPerSec(), "1/s"}
	r.e2e["raw_cpu_ms_per_op"] = metric{m.rawCPUMSPerOp(), "ms"}
	r.e2e["calibration_ms"] = metric{median(m.cal.cpu), "ms"}
	r.e2e["setup_calibration_ms"] = metric{median(setupCal.cpu), "ms"}
}

// overhead records the traced run's cost relative to the untraced one.
func (r *report) overhead(untraced, traced *meter) {
	r.layers["runtime.gc_cpu_share"] = metric{traced.gcCPUShare(), "ratio"}
	r.layers["trace.overhead_share"] = metric{1 - traced.opsPerSec()/untraced.opsPerSec(), "ratio"}
}

// workDir holds each run's WAL directories and the traced runs' spans,
// relative to the checkout root the benchmark runs from.
const workDir = ".bench_build"

var workloads = map[string]func(*env) (*report, error){
	"serve":        runServe,
	"write-loop":   runWriteLoop,
	"replica-sync": runReplicaSync,
	"eval-sweep":   runEvalSweep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "serve", "serve | write-loop | replica-sync | eval-sweep")
	seed := fl.Uint64("seed", defaultSeed, "workload seed")
	seconds := fl.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, dir: dir}
	if e.traced {
		e.rec = newRecorder()
	}
	fmt.Fprintf(stdout, "stamp %s\n", stamp(e, *name))
	rep, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := e.rec.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(e.rec.snapshot()), path)
	}
	rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	rep.e2e["failed_ratio"] = metric{rep.ops.failedRatio(), "ratio"}
	return finish(stdout, stderr, rep, e.traced)
}

// finish prints the human report and the result line; non-zero when
// an output check failed.
func finish(stdout, stderr io.Writer, rep *report, traced bool) int {
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, l := range rep.ops.lines() {
		fmt.Fprintln(stdout, l)
	}
	printMetrics(stdout, "metric", rep.e2e)
	out := result{Metrics: map[string]metric{}}
	out.Attempted, out.Failed = rep.ops.totals()
	// Every op is checked (a reply against the primary's bytes, a
	// replica against the primary's digests, a figure row for
	// completeness), and no op of these workloads fails on a correct
	// program, so any failed op fails the run.
	rep.check(out.Failed == 0, "%d of %d ops failed", out.Failed, out.Attempted)
	out.Correct = len(rep.failed) == 0
	if traced {
		for _, l := range layers {
			m, ok := rep.layers[l.name]
			if !ok {
				m = metric{0, l.unit}
			}
			out.Metrics[l.name] = m
			fmt.Fprintf(stdout, "layer %s %.6g %s (moves %s; measured on %s)\n", l.name, m.Value, m.Unit, l.moves, l.workload)
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = rep.e2e[m.name]
		}
	}
	for _, f := range rep.failed {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", name)
			out.Correct = false
			out.Metrics[name] = metric{-1, m.Unit}
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !out.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

// stamp identifies how a report was made, so runs made by different
// methods are never compared.
func stamp(e *env, workload string) string {
	fields := map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      e.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"wal_fs":     fsType(e.dir),
	}
	raw, _ := json.Marshal(fields) // a map of plain values always marshals
	return string(raw)
}

// commit names the measured source: the git commit when the launcher
// found one, else a digest of the module's Go sources and go.mod files.
func commit() string {
	if c := strings.TrimSpace(os.Getenv("PERFBENCH_COMMIT")); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
			h.Write(raw)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

// fsType names the filesystem holding dir (the WAL's disk).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
		0xF2F52010: "f2fs", 0x5346544E: "ntfs", 0x858458F6: "ramfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// scrape reads a registry through its public text exposition.
func scrape(reg *metrics.Registry) (metrics.Families, error) {
	var buf bytes.Buffer
	if err := reg.TextExpose(&buf); err != nil {
		return nil, err
	}
	return metrics.Parse(&buf)
}

// histMean returns a histogram family's sum, count and sum/count over
// the samples matching labels.
func histMean(fams metrics.Families, family string, labels map[string]string) (sum, count, mean float64) {
	sum, _ = fams.Sum(family+"_sum", labels)
	count, _ = fams.Sum(family+"_count", labels)
	if count > 0 {
		mean = sum / count
	}
	return sum, count, mean
}
