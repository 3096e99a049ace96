package main

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/rng"
)

// The write loop uses the kill/relaunch e2e's publishing settings (6000
// rows per block, the daemon command's 0.05 feature charge, loose SLAs,
// eps0 = eps-cap = 0.5, compaction every 5 ticks, 3 ledger shards) plus
// a retention window, so the timed ticks publish, journal, compact and
// retire in steady state. Without the window the live data, and so each
// tick's cost and the process's memory, grow for the whole run.
const (
	writeRetention = 24
	writeSetups    = 3
	writeRestarts  = 3
	writeReplicas  = 2
)

var writeGlobal = privacy.Budget{Epsilon: 1, Delta: 1e-6}

func writeConfig(dir string, seed uint64, urls []string) daemon.Config {
	return daemon.Config{
		Dir:           dir,
		Global:        writeGlobal,
		Tick:          time.Microsecond, // ticks run back to back
		RowsPerBlock:  6000,
		FeatureEps:    0.05,
		Pipelines:     2,
		SLATargets:    []float64{0.04, 0.042},
		Epsilon0:      0.5,
		EpsilonCap:    0.5,
		CompactEvery:  5,
		LedgerShards:  3,
		Retention:     writeRetention,
		Seed:          rng.MixSeed(seed, 3),
		PushEndpoints: urls,
	}
}

// writeFleet is one daemon's directory and its in-process replicas.
type writeFleet struct {
	dir   string
	reps  []*replica.Server
	urls  []string
	stops []func()
}

func (w *writeFleet) close() {
	for _, stop := range w.stops {
		stop()
	}
}

func newWriteFleet(dir string) *writeFleet {
	w := &writeFleet{dir: dir}
	for i := 0; i < writeReplicas; i++ {
		rs := replica.NewServer()
		srv := httptest.NewServer(rs.Handler())
		w.reps = append(w.reps, rs)
		w.urls = append(w.urls, srv.URL)
		w.stops = append(w.stops, srv.Close)
	}
	return w
}

// pushTotals sums the replicas' push histograms.
func (w *writeFleet) pushTotals() (sum, count float64, err error) {
	for _, rs := range w.reps {
		fams, err := scrape(rs.Metrics())
		if err != nil {
			return 0, 0, err
		}
		s, c, _ := histMean(fams, "sage_replica_push_seconds", nil)
		sum, count = sum+s, count+c
	}
	return sum, count, nil
}

// fillWindow creates a fresh directory, runs the daemon until the
// retention window is full, and reopens it for the timed phase.
func fillWindow(dir string, seed uint64) (*writeFleet, *daemon.Daemon, error) {
	w := newWriteFleet(dir)
	cfg := writeConfig(dir, seed, w.urls)
	cfg.MaxTicks = writeRetention
	d, _, err := daemon.New(cfg)
	if err == nil {
		err = d.Run(context.Background())
	}
	if err == nil {
		d, _, err = daemon.New(writeConfig(dir, seed, w.urls))
	}
	if err != nil {
		w.close()
		return nil, nil, fmt.Errorf("filling the retention window: %w", err)
	}
	return w, d, nil
}

// timedRun runs d back to back for seconds and returns the meter, the
// Run wall time and the final status. A sampler closes one meter window
// per second of ticks; the partial last window, which holds Run's
// closing sync and compaction, is left out of the rates.
func timedRun(d *daemon.Daemon, seconds float64, rep *report, phase string) (*meter, time.Duration, daemon.Status) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second)))
	defer cancel()
	m := &meter{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	m.begin()
	m.start()
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		last := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n := d.Status().Ticks
				m.stop(int64(n - last))
				last = n
				m.start()
			}
		}
	}()
	start := time.Now()
	err := d.Run(ctx)
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	m.end()
	st := d.Status()
	for i := 0; i < st.Ticks; i++ {
		rep.ops.record(phase, nil)
	}
	if err != nil {
		rep.ops.record(phase, err)
	}
	return m, wall, st
}

func runWriteLoop(e *env) (*report, error) {
	rep := newReport()
	var setups []float64
	var setupCal calibrator
	var w *writeFleet
	var d *daemon.Daemon
	setupCal.begin()
	for i := 0; i < writeSetups; i++ {
		if w != nil {
			d.Close()
			w.close()
			os.RemoveAll(w.dir)
		}
		start := time.Now()
		var err error
		w, d, err = fillWindow(filepath.Join(e.dir, fmt.Sprintf("wal-%d", i)), e.seed)
		if err != nil {
			setupCal.end()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupCal.end()
	defer w.close()

	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	pushSum0, pushCount0, err := w.pushTotals()
	if err != nil {
		return nil, err
	}
	m, wall, st := timedRun(d, seconds, rep, "tick")
	rep.addMeter(m, setups, &setupCal)
	reg := d.Metrics()

	if e.traced {
		plain := m
		d, _, err = daemon.New(writeConfig(w.dir, e.seed, w.urls))
		if err != nil {
			return nil, fmt.Errorf("restarting traced: %w", err)
		}
		pushSum0, pushCount0, err = w.pushTotals()
		if err != nil {
			return nil, err
		}
		runStart := time.Now()
		m, wall, st = timedRun(d, seconds, rep, "traced-tick")
		e.rec.add(1, "daemon.Run", "", runStart, runStart.Add(wall))
		reg = d.Metrics()
		rep.overhead(plain, m)
	}
	if err := writeLayers(rep, reg, w, st, wall, pushSum0, pushCount0); err != nil {
		return nil, err
	}

	rep.linef("status ticks=%d published=%d accepted=%d rejected=%d blocked=%d retired=%d next_block=%d loss_eps=%.4g",
		st.Ticks, st.Published, st.Accepted, st.Rejected, st.Blocked, st.RetiredBlocks, st.NextBlock, st.StreamLossEps)

	// Output checks on the closed directory.
	rep.check(st.Published > 0, "write-loop published no release in %d timed ticks", st.Ticks)
	rep.check(st.StreamLossEps <= writeGlobal.Epsilon*(1+1e-9) && st.StreamLossDelta <= writeGlobal.Delta*(1+1e-9),
		"stream loss (%g, %g) exceeds the global (%g, %g)", st.StreamLossEps, st.StreamLossDelta, writeGlobal.Epsilon, writeGlobal.Delta)
	for i, rs := range w.reps {
		rep.check(maps.Equal(rs.Store().Watermarks(), st.StoreVersions),
			"replica %d watermarks %v differ from store versions %v", i, rs.Store().Watermarks(), st.StoreVersions)
	}

	// Recovery: several restarts of the closed directory, each of which
	// must reproduce the durable status.
	var recov, opens []float64
	for i := 0; i < writeRestarts; i++ {
		start := time.Now()
		d2, _, err := daemon.New(writeConfig(w.dir, e.seed, w.urls))
		if err != nil {
			rep.ops.record("restart", err)
			continue
		}
		got := d2.Status()
		err = d2.Close()
		recov = append(recov, time.Since(start).Seconds())
		e.rec.add(uint64(2+i), "daemon.recovery", "", start, time.Now())
		if err == nil {
			err = sameDurable(st, got)
			rep.check(err == nil, "restart %d: %v", i, err)
		}
		rep.ops.record("restart", err)
	}
	for i := 0; i < writeRestarts; i++ {
		start := time.Now()
		p, _, err := durable.Open(w.dir, core.Policy{Global: writeGlobal}, durable.Options{})
		if err == nil {
			opens = append(opens, float64(time.Since(start))/float64(time.Millisecond))
			err = p.Close()
		}
		rep.ops.record("durable-open", err)
	}
	rep.check(len(recov) == writeRestarts, "only %d of %d restarts succeeded", len(recov), writeRestarts)
	rep.e2e["recovery_s"] = metric{median(recov), "s"}
	rep.layers["durable.open_ms"] = metric{median(opens), "ms"}
	return rep, nil
}

// sameDurable compares the Status fields that live in the WAL.
func sameDurable(want, got daemon.Status) error {
	switch {
	case got.NextBlock != want.NextBlock:
		return fmt.Errorf("restart: next block %d, want %d", got.NextBlock, want.NextBlock)
	case !reflect.DeepEqual(got.Blocks, want.Blocks):
		return errors.New("restart: ledger blocks differ")
	case got.StreamLossEps != want.StreamLossEps || got.StreamLossDelta != want.StreamLossDelta:
		return fmt.Errorf("restart: stream loss (%g, %g), want (%g, %g)", got.StreamLossEps, got.StreamLossDelta, want.StreamLossEps, want.StreamLossDelta)
	case !maps.Equal(got.StoreVersions, want.StoreVersions):
		return fmt.Errorf("restart: store versions %v, want %v", got.StoreVersions, want.StoreVersions)
	case got.RetiredBlocks != want.RetiredBlocks:
		return fmt.Errorf("restart: %d retired blocks, want %d", got.RetiredBlocks, want.RetiredBlocks)
	}
	return nil
}

// writeLayers turns the daemon's and replicas' histograms into per-tick
// layer times and checks that the phases cover Run's wall time.
func writeLayers(rep *report, reg *metrics.Registry, w *writeFleet, st daemon.Status, wall time.Duration, pushSum0, pushCount0 float64) error {
	fams, err := scrape(reg)
	if err != nil {
		return err
	}
	ticks := float64(st.Ticks)
	if ticks == 0 {
		return errors.New("no timed ticks")
	}
	perTick := func(seconds float64) float64 { return seconds * 1000 / ticks }
	var phases float64
	for _, p := range []string{"ingest", "train", "retention", "compaction"} {
		sum, _, _ := histMean(fams, "sage_daemon_tick_phase_seconds", map[string]string{"phase": p})
		phases += sum
		rep.layers["daemon."+p+"_ms"] = metric{perTick(sum), "ms"}
	}
	rem := wall.Seconds() - phases
	rep.layers["daemon.remainder_ms"] = metric{perTick(rem), "ms"}
	rep.linef("decompose tick: Run wall %.4f s = phases %.4f s + remainder %.4f s over %d ticks", wall.Seconds(), phases, rem, st.Ticks)

	appendSum, _, _ := histMean(fams, "sage_wal_append_seconds", nil)
	syncfsSum, _, _ := histMean(fams, "sage_wal_syncfs_seconds", nil)
	_, _, frames := histMean(fams, "sage_wal_commit_batch_frames", nil)
	rep.layers["wal.append_ms"] = metric{perTick(appendSum), "ms"}
	rep.layers["wal.syncfs_ms"] = metric{perTick(syncfsSum), "ms"}
	rep.layers["wal.cohort_frames"] = metric{frames, "count"}

	rep.layers["adaptive.train_share"] = metric{(ticks - float64(st.Blocked)) / ticks, "ratio"}
	if runs := st.Accepted + st.Rejected; runs > 0 {
		rep.layers["adaptive.accept_ratio"] = metric{float64(st.Accepted) / float64(runs), "ratio"}
	}
	rep.layers["adaptive.releases"] = metric{float64(st.Published), "count"}

	pushSum, pushCount, err := w.pushTotals()
	if err != nil {
		return err
	}
	if n := pushCount - pushCount0; n > 0 {
		rep.layers["replica.push_ms"] = metric{(pushSum - pushSum0) * 1000 / n, "ms"}
	}
	return nil
}
