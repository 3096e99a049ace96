package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// The host's speed drifts: on a shared virtual machine the same code
// takes 20-50% longer, in CPU time as well as wall time, for seconds to
// minutes at a time. While a workload runs, the benchmark therefore
// times a fixed kernel every calPeriod on a thread of its own and
// reports its time metrics scaled to a machine on which the kernel
// takes calRef: a metric measured while the kernel's median time was k
// times calRef is divided by k^calExponent (a rate is multiplied by
// it). The raw figures are printed beside the scaled ones.
const (
	calRef    = 14 * time.Millisecond
	calPeriod = 100 * time.Millisecond
	// Over 20 runs of each workload on one host, log workload time
	// followed log kernel time with a slope of 1.3-1.7 (correlation
	// 0.95-0.99): the workloads feel a change of host speed more than
	// the kernel does. The exponent takes the low end, since
	// overcorrecting would add the kernel's own noise.
	calExponent = 1.25
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling OS thread's CPU time. The kernel is
// timed in thread CPU time so that the workload's goroutines, which
// run beside it, do not count.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calData is the kernel's input, built on first use. The kernel
// allocates nothing, and its 4 MiB cycle lives outside the Go heap, so
// it changes neither the workload's allocation counts nor its GC pace.
var calData = sync.OnceValue(func() (d struct {
	buf    []byte
	fl     []float64
	xs, ys []int
	chase  []uint32
}) {
	d.buf = make([]byte, 64<<10)
	for i := range d.buf {
		d.buf[i] = byte(i * 31)
	}
	d.fl = make([]float64, 1<<14)
	for i := range d.fl {
		d.fl[i] = float64(i%97) / 97
	}
	d.xs = make([]int, 2048)
	for i := range d.xs {
		d.xs[i] = (i * 7919) % 4099
	}
	d.ys = make([]int, len(d.xs))
	// One random cycle through 4 MiB, more than a core's L2 cache, so
	// following it is bound by the shared cache and memory that other
	// tenants of the host compete for.
	const n = 1 << 20
	raw, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		raw = make([]byte, 4*n)
	}
	d.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), n)
	for i := range d.chase {
		d.chase[i] = uint32(i)
	}
	r := rng.New(1)
	for i := n - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		j := r.IntN(i)
		d.chase[i], d.chase[j] = d.chase[j], d.chase[i]
	}
	return d
})

var calSink uint64

// calKernel is a fixed mix of the work the workloads do: hashing,
// strided floating-point arithmetic and sorting, which run from a
// core's own caches, then dependent loads from the shared cache and
// memory.
func calKernel() {
	d := calData()
	for r := 0; r < 36; r++ {
		s := sha256.Sum256(d.buf)
		calSink += uint64(s[0])
		acc := 0.0
		for i := range d.fl {
			acc += d.fl[(i*131)%len(d.fl)] * d.fl[i]
		}
		calSink += uint64(acc)
		copy(d.ys, d.xs)
		slices.Sort(d.ys)
		calSink += uint64(d.ys[r])
	}
	i := uint32(0)
	for n := 0; n < 1<<15; n++ {
		i = d.chase[i]
	}
	calSink += uint64(i)
}

// calibrator times the kernel every calPeriod between begin and end.
type calibrator struct {
	cpu       []float64    // ms per kernel run; read it after end
	kernelCPU atomic.Int64 // ns, all runs so far
	stop      chan struct{}
	done      chan struct{}
}

// begin starts timing the kernel on a locked OS thread; the first run
// starts at once.
func (c *calibrator) begin() {
	calData()
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(calPeriod)
		defer t.Stop()
		for {
			start := threadCPU()
			calKernel()
			d := threadCPU() - start
			c.kernelCPU.Add(int64(d))
			c.cpu = append(c.cpu, ms(d))
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// end stops the kernel and waits for its thread.
func (c *calibrator) end() {
	close(c.stop)
	<-c.done
}

// slowdown is how many times slower than the reference machine the
// host ran the workloads: the median kernel time over calRef, to the
// power calExponent (1 with no samples).
func (c *calibrator) slowdown() float64 {
	if len(c.cpu) == 0 {
		return 1
	}
	return math.Pow(median(c.cpu)/ms(calRef), calExponent)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
