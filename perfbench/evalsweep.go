package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/validation"
)

// defaultSeed is the seed the recorded figure digest belongs to.
const defaultSeed = 1

// defaultSweepDigest is the SHA-256 of the printed Fig. 6, Fig. 7 (LR)
// and Fig. 8 grids of sweep 0 at defaultSeed. It changes only when the
// figures' numbers change.
const defaultSweepDigest = "6b79f806c3ca991c0ecfd1e10a3917d18d21b4940b4f02ccc9d54d12c46a16cc"

// sweepOptions are reduced-scale figure grids run on every CPU. Sweep
// k of a run seeds its figures from (workload seed, k): how much work a
// figure does depends on its seed (how long a sample-complexity search
// runs), so a run averages over many seeds instead of repeating one.
type sweepOptions struct {
	fig6 experiments.Fig6Options
	fig7 experiments.Fig7Options
	fig8 experiments.Fig8Options
}

func newSweepOptions(seed uint64, k int) sweepOptions {
	seed = rng.MixSeed(seed, uint64(k))
	workers := runtime.GOMAXPROCS(0)
	return sweepOptions{
		fig6: experiments.Fig6Options{
			MaxStream: 60000, MinSamples: 5000, Models: []string{"Taxi-LR"}, TargetsPerConfig: 2,
			Modes:   []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
			Seed:    rng.MixSeed(seed, 6),
			Workers: workers,
		},
		fig7: experiments.Fig7Options{
			Sizes: []int{10000, 20000}, LRBlockSizes: []int{5000}, Targets: []float64{0.007},
			MaxStream: 40000, Holdout: 10000, SkipNN: true,
			Seed:    rng.MixSeed(seed, 7),
			Workers: workers,
		},
		fig8: experiments.Fig8Options{
			TaxiRates: []float64{0.2, 0.6}, CriteoRates: []float64{0.3}, Hours: 400,
			Seed:    rng.MixSeed(seed, 8),
			Workers: workers,
		},
	}
}

// sweepOps is the number of figure calls in one sweep.
const sweepOps = 4

// sweepTimes accumulates per-figure wall time.
type sweepTimes struct {
	fig6, fig7, fig8 time.Duration
	sweeps           int
}

// sweep runs each figure once, records one op per figure call, and
// returns the digest of the printed output. Incomplete or non-finite
// rows are failures.
func sweep(o sweepOptions, rep *report, phase string, t *sweepTimes, m *meter, rec *recorder, k int) string {
	h := sha256.New()
	timed := func(name string, dst *time.Duration, fn func() error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		*dst += end.Sub(start)
		rec.add(uint64(k), name, "", start, end)
		rep.ops.record(phase, err)
	}
	if m != nil {
		m.start()
		defer m.stop(sweepOps)
	}
	timed("experiments.Fig6", &t.fig6, func() error {
		pts := experiments.Fig6(o.fig6)
		experiments.PrintFig6(h, pts)
		if len(pts) != 2*len(o.fig6.Modes) {
			return fmt.Errorf("fig6: %d points, want %d", len(pts), 2*len(o.fig6.Modes))
		}
		for _, p := range pts {
			if p.Samples <= 0 || !finite(p.Target) {
				return fmt.Errorf("fig6: incomplete row %+v", p)
			}
		}
		return nil
	})
	var quality []experiments.Fig7QualityPoint
	timed("experiments.Fig7Quality", &t.fig7, func() error {
		quality = experiments.Fig7Quality(o.fig7)
		for _, p := range quality {
			if p.N <= 0 || !finite(p.MSE) {
				return fmt.Errorf("fig7 quality: incomplete row %+v", p)
			}
		}
		if len(quality) == 0 {
			return fmt.Errorf("fig7 quality: no rows")
		}
		return nil
	})
	timed("experiments.Fig7Accept", &t.fig7, func() error {
		accepts := experiments.Fig7Accept(o.fig7)
		experiments.PrintFig7(h, quality, accepts)
		for _, p := range accepts {
			if p.Samples <= 0 || !finite(p.Target) {
				return fmt.Errorf("fig7 accept: incomplete row %+v", p)
			}
		}
		if len(accepts) == 0 {
			return fmt.Errorf("fig7 accept: no rows")
		}
		return nil
	})
	timed("experiments.Fig8", &t.fig8, func() error {
		res := experiments.Fig8(o.fig8)
		experiments.PrintFig8(h, res)
		if len(res.Taxi) != 4*len(o.fig8.TaxiRates) || len(res.Criteo) != 4*len(o.fig8.CriteoRates) {
			return fmt.Errorf("fig8: %d taxi and %d criteo points", len(res.Taxi), len(res.Criteo))
		}
		for _, p := range append(res.Taxi, res.Criteo...) {
			if !finite(p.Stats.AvgReleaseTime) || !finite(p.Stats.AvgBudgetSpent) || p.Stats.Arrived <= 0 {
				return fmt.Errorf("fig8: incomplete row %+v", p)
			}
		}
		return nil
	})
	t.sweeps++
	return digestHex(h)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func digestHex(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

// evalSetups is how many times set-up (one warm sweep) is repeated.
const evalSetups = 3

func runEvalSweep(e *env) (*report, error) {
	rep := newReport()

	// Set-up is a warm sweep 0 (scheduler, calibration caches), repeated
	// so setup_s is a median; at the default seed its digest must match
	// the recorded one, and every set-up must reproduce it.
	var setups []float64
	var setupCal calibrator
	var ref string
	setupCal.begin()
	for i := 0; i < evalSetups; i++ {
		start := time.Now()
		d := sweep(newSweepOptions(e.seed, 0), rep, "warm", &sweepTimes{}, nil, nil, 0)
		setups = append(setups, time.Since(start).Seconds())
		rep.check(ref == "" || d == ref, "set-up sweep digest %s differs from %s", d, ref)
		ref = d
	}
	setupCal.end()
	if e.seed == defaultSeed {
		rep.check(ref == defaultSweepDigest, "figure digest %s at the default seed, recorded %s", ref, defaultSweepDigest)
	}
	rep.linef("digest sweep0 %s", ref)

	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	k := 0
	drive := func(phase string, rec *recorder) (*meter, *sweepTimes) {
		m, t := &meter{}, &sweepTimes{}
		m.begin()
		defer m.end()
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			k++
			sweep(newSweepOptions(e.seed, k), rep, phase, t, m, rec, k)
		}
		return m, t
	}
	m, _ := drive("figure", nil)
	rep.addMeter(m, setups, &setupCal)
	if !e.traced {
		return rep, nil
	}
	tm, t := drive("traced-figure", e.rec)
	rep.overhead(m, tm)
	n := float64(t.sweeps)
	rep.layers["experiments.fig6_s"] = metric{t.fig6.Seconds() / n, "s"}
	rep.layers["experiments.fig7_s"] = metric{t.fig7.Seconds() / n, "s"}
	rep.layers["experiments.fig8_s"] = metric{t.fig8.Seconds() / n, "s"}
	rep.layers["parallel.busy_share"] = metric{tm.cpu.Seconds() / (tm.wall.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"}
	return rep, nil
}
