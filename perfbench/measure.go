package main

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// summary describes one latency class by the benchmark's percentile rule:
// the median, p90, and the highest percentile that still has at least
// minBeyond samples above it, reported with that sample count.
type summary struct {
	N       int
	P50     float64
	P90     float64
	TailPct float64 // 0 when fewer than minBeyond samples exist at all
	Tail    float64
	Beyond  int // samples strictly above the tail rank
}

const minBeyond = 10

// tailCandidates are the percentiles the tail rule may pick, highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// summarize applies the percentile rule to samples (which it does not
// modify). Percentiles use the nearest-rank definition.
func summarize(samples []float64) summary {
	s := summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.P50, _ = percentile(sorted, 50)
	s.P90, _ = percentile(sorted, 90)
	for _, p := range tailCandidates {
		v, beyond := percentile(sorted, p)
		if beyond >= minBeyond {
			s.TailPct, s.Tail, s.Beyond = p, v, beyond
			break
		}
	}
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted and how
// many samples lie above that rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	// The tolerance keeps exact ranks exact: 99.9% of 10000 computes as
	// 9990.000000000002 in floating point.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// median returns the middle value (mean of the middle two for even n).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// opLedger counts attempted and failed operations per phase. A failure
// is any op that did not deliver a checked result: a non-2xx reply, a
// transport error, a mismatched body or digest, or a journal error.
type opLedger struct {
	mu     sync.Mutex
	order  []string
	phases map[string]*phaseCount
}

type phaseCount struct {
	Attempted int64
	Failed    int64
	FirstErr  error
}

func newOpLedger() *opLedger { return &opLedger{phases: make(map[string]*phaseCount)} }

// record counts one op of phase; a non-nil err counts it as failed.
func (l *opLedger) record(phase string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pc := l.phases[phase]
	if pc == nil {
		pc = &phaseCount{}
		l.phases[phase] = pc
		l.order = append(l.order, phase)
	}
	pc.Attempted++
	if err != nil {
		pc.Failed++
		if pc.FirstErr == nil {
			pc.FirstErr = err
		}
	}
}

// totals sums every phase.
func (l *opLedger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pc := range l.phases {
		attempted += pc.Attempted
		failed += pc.Failed
	}
	return attempted, failed
}

// failedRatio is failed over attempted across every phase (0 when
// nothing was attempted).
func (l *opLedger) failedRatio() float64 {
	a, f := l.totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// lines renders one line per phase, in first-seen order.
func (l *opLedger) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, name := range l.order {
		pc := l.phases[name]
		line := fmt.Sprintf("ops %s attempted=%d succeeded=%d failed=%d", name, pc.Attempted, pc.Attempted-pc.Failed, pc.Failed)
		if pc.FirstErr != nil {
			line += fmt.Sprintf(" first_error=%q", pc.FirstErr.Error())
		}
		out = append(out, line)
	}
	return out
}

// procSample is one reading of the process-wide counters the
// end-to-end metrics difference.
type procSample struct {
	wall   time.Time
	cpu    time.Duration // user + sys
	allocs uint64        // cumulative heap allocations (objects)
	gcCPU  float64       // cumulative GC CPU seconds, runtime estimate
}

var rtSampleNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

func readProc() procSample {
	rs := make([]rtmetrics.Sample, len(rtSampleNames))
	for i, name := range rtSampleNames {
		rs[i].Name = name
	}
	rtmetrics.Read(rs)
	s := procSample{wall: time.Now(), cpu: processCPU()}
	if rs[0].Value.Kind() == rtmetrics.KindUint64 {
		s.allocs = rs[0].Value.Uint64()
	}
	if rs[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = rs[1].Value.Float64()
	}
	return s
}

// processCPU returns the process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter accumulates process counters over timed windows. The rates it
// reports are medians over windows, so a burst of interference from
// outside the process moves one window, not the result. Its calibrator
// runs from begin to end, beside the windows, and its time figures are
// scaled by the calibrator's slowdown.
type meter struct {
	wall     time.Duration // totals over all windows
	cpu      time.Duration
	gcCPU    float64
	windows  []window
	at       procSample
	atKernel int64 // calibrator CPU at start, ns
	cal      calibrator
}

// window is one start/stop interval.
type window struct {
	ops    int64
	wall   time.Duration
	cpu    time.Duration // the process's, less the calibration kernel's
	allocs uint64
}

func (m *meter) begin() { m.cal.begin() }

func (m *meter) end() { m.cal.end() }

// start opens a window.
func (m *meter) start() {
	m.at = readProc()
	m.atKernel = m.cal.kernelCPU.Load()
}

// stop closes the open window, crediting it with ops.
func (m *meter) stop(ops int64) {
	now := readProc()
	kernel := time.Duration(m.cal.kernelCPU.Load() - m.atKernel)
	w := window{ops: ops, wall: now.wall.Sub(m.at.wall), cpu: now.cpu - m.at.cpu - kernel, allocs: now.allocs - m.at.allocs}
	m.wall += w.wall
	m.cpu += w.cpu
	m.gcCPU += now.gcCPU - m.at.gcCPU
	if ops > 0 {
		m.windows = append(m.windows, w)
	}
}

// perWindow is the median over windows of f.
func (m *meter) perWindow(f func(w window) float64) float64 {
	vals := make([]float64, len(m.windows))
	for i, w := range m.windows {
		vals[i] = f(w)
	}
	return median(vals)
}

// rawOpsPerSec and rawCPUMSPerOp are the medians over windows as
// measured; opsPerSec and cpuMSPerOp scale them to the reference
// machine.
func (m *meter) rawOpsPerSec() float64 {
	return m.perWindow(func(w window) float64 { return float64(w.ops) / w.wall.Seconds() })
}

func (m *meter) rawCPUMSPerOp() float64 {
	return m.perWindow(func(w window) float64 { return ms(w.cpu) / float64(w.ops) })
}

func (m *meter) opsPerSec() float64 { return m.rawOpsPerSec() * m.cal.slowdown() }

func (m *meter) cpuMSPerOp() float64 { return m.rawCPUMSPerOp() / m.cal.slowdown() }

func (m *meter) allocsPerOp() float64 {
	return m.perWindow(func(w window) float64 { return float64(w.allocs) / float64(w.ops) })
}

// gcCPUShare is the runtime's GC CPU estimate over the process's
// measured user + sys CPU, over all windows.
func (m *meter) gcCPUShare() float64 {
	if m.cpu <= 0 {
		return 0
	}
	return m.gcCPU / m.cpu.Seconds()
}
