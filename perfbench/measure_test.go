package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSummarizePercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return out
	}
	for _, tc := range []struct {
		n                 int
		p50, p90, tailPct float64
		tail              float64
		beyond            int
	}{
		{n: 1000, p50: 500, p90: 900, tailPct: 99, tail: 990, beyond: 10},
		{n: 100, p50: 50, p90: 90, tailPct: 90, tail: 90, beyond: 10},
		{n: 10000, p50: 5000, p90: 9000, tailPct: 99.9, tail: 9990, beyond: 10},
		{n: 25, p50: 13, p90: 23, tailPct: 50, tail: 13, beyond: 12},
		{n: 5, p50: 3, p90: 5},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.P90 != tc.p90 || s.TailPct != tc.tailPct || s.Tail != tc.tail || s.Beyond != tc.beyond {
			t.Errorf("n=%d: got %+v, want p50 %v p90 %v tail p%v=%v beyond %d", tc.n, s, tc.p50, tc.p90, tc.tailPct, tc.tail, tc.beyond)
		}
	}
	if s := summarize(nil); s.N != 0 || s.TailPct != 0 {
		t.Errorf("empty: %+v", s)
	}
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}

func TestOpLedger(t *testing.T) {
	l := newOpLedger()
	if l.failedRatio() != 0 {
		t.Fatal("empty ledger has failures")
	}
	for i := 0; i < 6; i++ {
		l.record("timed", nil)
	}
	l.record("timed", errors.New("status 503"))
	l.record("timed", errors.New("later"))
	l.record("warm", nil)
	l.record("restart", errors.New("journal"))

	if a, f := l.totals(); a != 10 || f != 3 {
		t.Fatalf("totals %d/%d, want 10/3", a, f)
	}
	if got := l.failedRatio(); got != 0.3 {
		t.Errorf("failed ratio %v, want 0.3", got)
	}
	lines := l.lines()
	want := []string{
		`ops timed attempted=8 succeeded=6 failed=2 first_error="status 503"`,
		"ops warm attempted=1 succeeded=1 failed=0",
		`ops restart attempted=1 succeeded=0 failed=1 first_error="journal"`,
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("lines %q, want %q", lines, want)
	}
}

var sink [][]byte

func TestProcessReaders(t *testing.T) {
	// The runtime counts an allocation when its span leaves the
	// per-P cache, so the counter may trail by a few spans' objects.
	const n = 100000
	before := readProc()
	for i := 0; i < n; i++ {
		sink = append(sink, make([]byte, 64))
	}
	spin := time.Now()
	x := 0
	for time.Since(spin) < 50*time.Millisecond {
		x++
	}
	after := readProc()
	sink = nil
	if got := after.allocs - before.allocs; got < n-1000 {
		t.Errorf("allocs delta %d after %d allocations", got, n)
	}
	if got := after.cpu - before.cpu; got < 20*time.Millisecond {
		t.Errorf("cpu delta %v after a 50ms spin (%d)", got, x)
	}

	// While 64 MiB are touched and live, the high-water mark is at
	// least that, whatever earlier tests left behind.
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	if got := peakRSSMB(); got < 64 {
		t.Errorf("peak RSS %v MiB with 64 MiB touched", got)
	}
	sink = append(sink, big[:1])
	sink = nil
}

func TestMeterTakesMediansOverWindows(t *testing.T) {
	m := meter{windows: []window{
		{ops: 10, wall: time.Second, cpu: 20 * time.Millisecond, allocs: 100},
		{ops: 10, wall: 10 * time.Second, cpu: 500 * time.Millisecond, allocs: 9000}, // a disturbed window
		{ops: 20, wall: 2 * time.Second, cpu: 60 * time.Millisecond, allocs: 300},
	}}
	if got := m.opsPerSec(); got != 10 {
		t.Errorf("ops/s %v, want the median window's 10", got)
	}
	if got := m.cpuMSPerOp(); got != 3 {
		t.Errorf("cpu ms/op %v, want 3", got)
	}
	if got := m.allocsPerOp(); got != 15 {
		t.Errorf("allocs/op %v, want 15", got)
	}

	// Scaling: on a host where the median kernel run took twice calRef,
	// the scaled rate is the raw one times the slowdown and the scaled
	// CPU per op the raw one over it.
	m.cal.cpu = []float64{2 * ms(calRef), 2 * ms(calRef), 100 * ms(calRef)}
	slow := math.Pow(2, calExponent)
	if got := m.opsPerSec(); math.Abs(got-10*slow) > 1e-9 {
		t.Errorf("scaled ops/s %v, want %v", got, 10*slow)
	}
	if got := m.cpuMSPerOp(); math.Abs(got-3/slow) > 1e-9 {
		t.Errorf("scaled cpu ms/op %v, want %v", got, 3/slow)
	}

	// A live meter: windows open and close while the calibrator runs
	// beside them, and the kernel's CPU time is not the window's.
	var live meter
	live.begin()
	live.start()
	time.Sleep(250 * time.Millisecond)
	live.stop(5)
	live.start()
	live.stop(0) // an empty window is not a sample
	live.end()
	if len(live.windows) != 1 || live.wall < 250*time.Millisecond {
		t.Errorf("live meter: %d windows over %v", len(live.windows), live.wall)
	}
	if len(live.cal.cpu) < 2 {
		t.Fatalf("%d kernel runs in 250ms, want at least 2", len(live.cal.cpu))
	}
	if kernel := time.Duration(live.cal.kernelCPU.Load()); live.windows[0].cpu > kernel/2 {
		t.Errorf("window CPU %v beside %v of kernel CPU", live.windows[0].cpu, kernel)
	}
}

func TestCalibrator(t *testing.T) {
	var c calibrator
	if c.slowdown() != 1 {
		t.Errorf("slowdown %v with no samples, want 1", c.slowdown())
	}
	c.begin()
	time.Sleep(calPeriod * 5 / 2)
	c.end()
	if len(c.cpu) < 2 || len(c.cpu) > 4 {
		t.Fatalf("%d kernel runs in %v, one every %v", len(c.cpu), calPeriod*5/2, calPeriod)
	}
	var sum float64
	for _, v := range c.cpu {
		if v <= 0 {
			t.Errorf("kernel run took %v ms", v)
		}
		sum += v
	}
	if got := ms(time.Duration(c.kernelCPU.Load())); math.Abs(got-sum) > 1e-6 {
		t.Errorf("kernel CPU total %v ms, runs sum to %v ms", got, sum)
	}
	if got, want := c.slowdown(), math.Pow(median(c.cpu)/ms(calRef), calExponent); got != want {
		t.Errorf("slowdown %v, want %v", got, want)
	}
}

func TestThreadCPUCountsOnlyThisThread(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	time.Sleep(30 * time.Millisecond)
	if d := threadCPU() - start; d > 10*time.Millisecond {
		t.Errorf("a sleeping thread used %v of CPU", d)
	}
	start = threadCPU()
	for spin := time.Now(); time.Since(spin) < 30*time.Millisecond; {
	}
	if d := threadCPU() - start; d < 10*time.Millisecond {
		t.Errorf("a 30ms spin used %v of thread CPU", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 1, Name: "gateway", Parent: "client", Start: 10, End: 90},
		{ID: 1, Name: "upstream", Parent: "gateway", Start: 20, End: 40},
		{ID: 1, Name: "upstream", Parent: "gateway", Start: 35, End: 60}, // retry overlapping the first attempt
		{ID: 1, Name: "replica", Parent: "upstream", Start: 22, End: 30},
		{ID: 2, Name: "client", Start: 0, End: 50}, // other request: no children
	}
	self := selfTimes(spans)
	want := []time.Duration{20, 40, 12, 25, 8, 50}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s) self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{50, 60}, {0, 10}, {5, 20}, {30, 30}}); got != 30 {
		t.Errorf("covered %d, want 30", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered nil %d", got)
	}
}

func TestTraceparentCarriesRequestID(t *testing.T) {
	h := http.Header{}
	if requestID(h) != 0 {
		t.Fatal("missing header gave an id")
	}
	for _, id := range []uint64{1, 42, 1 << 40} {
		h.Set("traceparent", traceparent(id))
		if got := requestID(h); got != id {
			t.Errorf("id %d round-tripped to %d", id, got)
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the code's
// metric lists in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, code runs %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, code has %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, code reports %d", len(b.PerLayer), len(layers))
	}
	for i, m := range layers {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, code has %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}
