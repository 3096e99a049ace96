package main

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
)

// The release history: syncVersions versions spread over the daemon's
// two taxi-LR pipeline names and one MLP name, every mlpEvery-th
// version an MLP-sized bundle.
const (
	syncVersions = 400
	mlpEvery     = 8
	syncReplicas = 2
	syncSetups   = 3
)

// syncMLPHidden sizes the history's MLP releases.
var syncMLPHidden = []int{64, 32}

// syncHistory publishes the deterministic history into a fresh primary.
func syncHistory(seed uint64) (*store.Store, error) {
	src := store.New()
	r := rng.New(rng.MixSeed(seed, 4))
	for v := 0; v < syncVersions; v++ {
		b := store.Bundle{Name: fmt.Sprintf("taxi-lr-%d", v%2)}
		if v%mlpEvery == mlpEvery-1 {
			b.Name = "taxi-mlp"
			spec, err := store.Serialize(ml.NewMLP(ml.Regression, taxi.FeatureDim, syncMLPHidden, r))
			if err != nil {
				return nil, err
			}
			b.Model = spec
		} else {
			w := make([]float64, taxi.FeatureDim)
			for i := range w {
				w[i] = r.Float64()*2 - 1
			}
			spec, err := store.Serialize(&ml.LinearModel{Weights: w, Bias: r.Float64()})
			if err != nil {
				return nil, err
			}
			b.Model = spec
		}
		speeds := make([]float64, 24)
		for i := range speeds {
			speeds[i] = 20 + 15*r.Float64()
		}
		b.Features = map[string][]float64{"hour_speed": speeds}
		blocks := make([]data.BlockID, 6+v%19)
		for i := range blocks {
			blocks[i] = data.BlockID(v + i)
		}
		b.Provenance = store.Provenance{
			Pipeline: b.Name, Blocks: blocks, Decision: "accept", Quality: 0.03 + r.Float64()*0.01,
		}
		b.Provenance.Spent.Epsilon = 0.5
		src.Publish(b)
	}
	return src, nil
}

// handlerTotals sums handler time and request bytes over a replica's
// requests, for the traced run.
type handlerTotals struct {
	mu        sync.Mutex
	busy      time.Duration
	pushes    int64
	pushBytes int64
}

func (t *handlerTotals) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.busy += d
		if r.URL.Path == "/push" {
			t.pushes++
			t.pushBytes += r.ContentLength
		}
	})
}

// syncRound pushes the whole history to fresh replicas and checks them.
// It returns the versions applied.
func syncRound(src *store.Store, digests map[string][][sha256.Size]byte, m *meter, tot *handlerTotals, rec *recorder, round uint64) (int64, time.Duration, float64, float64, error) {
	var urls []string
	var reps []*replica.Server
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for i := 0; i < syncReplicas; i++ {
		rs := replica.NewServer()
		var h http.Handler = rs.Handler()
		if tot != nil {
			h = tot.wrap(h)
		}
		srv := httptest.NewServer(h)
		reps, urls, stops = append(reps, rs), append(urls, srv.URL), append(stops, srv.Close)
	}
	pub := replica.NewPublisher(src, urls)
	start := time.Now()
	if m != nil {
		m.start()
	}
	err := pub.Sync()
	wall := time.Since(start)
	var applied int64
	for _, rs := range reps {
		for _, n := range rs.Store().Watermarks() {
			applied += int64(n)
		}
	}
	if m != nil {
		m.stop(applied)
	}
	rec.add(round, "publisher.Sync", "", start, start.Add(wall))
	if err != nil {
		return applied, wall, 0, 0, fmt.Errorf("sync: %w", err)
	}
	var pushSum, pushCount float64
	for i, rs := range reps {
		if err := sameHistory(src, rs.Store(), digests); err != nil {
			return applied, wall, 0, 0, fmt.Errorf("replica %d: %w", i, err)
		}
		fams, err := scrape(rs.Metrics())
		if err != nil {
			return applied, wall, 0, 0, err
		}
		s, c, _ := histMean(fams, "sage_replica_push_seconds", nil)
		pushSum, pushCount = pushSum+s, pushCount+c
	}
	return applied, wall, pushSum, pushCount, nil
}

// sameHistory checks a replica's watermarks and every bundle digest
// against the primary's.
func sameHistory(src, got *store.Store, digests map[string][][sha256.Size]byte) error {
	if !maps.Equal(src.Watermarks(), got.Watermarks()) {
		return fmt.Errorf("watermarks %v, primary %v", got.Watermarks(), src.Watermarks())
	}
	for name, ds := range digests {
		for v, want := range ds {
			b, ok := got.Get(name, v+1)
			if !ok || b.Digest() != want {
				return fmt.Errorf("%s v%d: digest differs from the primary's", name, v+1)
			}
		}
	}
	return nil
}

// recordVersions counts one op per version a round should apply on
// each replica; when the round failed, the versions it did not apply,
// or all of them if its check failed, count as failed.
func recordVersions(ops *opLedger, phase string, applied int64, err error) {
	want := int64(syncVersions * syncReplicas)
	ok := applied
	if err != nil {
		ok = 0
	}
	for i := int64(0); i < want; i++ {
		if i < ok {
			ops.record(phase, nil)
		} else {
			ops.record(phase, err)
		}
	}
}

func historyDigests(src *store.Store) map[string][][sha256.Size]byte {
	out := map[string][][sha256.Size]byte{}
	for name, n := range src.Watermarks() {
		for v := 1; v <= n; v++ {
			b, _ := src.Get(name, v)
			out[name] = append(out[name], b.Digest())
		}
	}
	return out
}

func runReplicaSync(e *env) (*report, error) {
	rep := newReport()
	var setups []float64
	var setupCal calibrator
	var src *store.Store
	var digests map[string][][sha256.Size]byte
	setupCal.begin()
	for i := 0; i < syncSetups; i++ {
		start := time.Now()
		var err error
		if src, err = syncHistory(e.seed); err != nil {
			setupCal.end()
			return nil, err
		}
		digests = historyDigests(src)
		applied, _, _, _, err := syncRound(src, digests, nil, nil, nil, 0)
		recordVersions(rep.ops, "warm", applied, err)
		setups = append(setups, time.Since(start).Seconds())
	}
	setupCal.end()

	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	drive := func(phase string, tot *handlerTotals, rec *recorder) (*meter, time.Duration, float64, float64) {
		m := &meter{}
		m.begin()
		defer m.end()
		var wall time.Duration
		var pushSum, pushCount float64
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for round := uint64(1); time.Now().Before(deadline); round++ {
			applied, w, s, c, err := syncRound(src, digests, m, tot, rec, round)
			recordVersions(rep.ops, phase, applied, err)
			wall, pushSum, pushCount = wall+w, pushSum+s, pushCount+c
		}
		return m, wall, pushSum, pushCount
	}
	m, _, _, _ := drive("round", nil, nil)
	rep.addMeter(m, setups, &setupCal)
	if !e.traced {
		return rep, nil
	}

	tot := &handlerTotals{}
	tm, wall, pushSum, pushCount := drive("traced-round", tot, e.rec)
	rep.overhead(m, tm)
	if pushCount > 0 {
		rep.layers["replica.push_ms"] = metric{pushSum * 1000 / pushCount, "ms"}
	}
	if tot.pushes > 0 {
		rep.layers["replica.push_bytes"] = metric{float64(tot.pushBytes) / float64(tot.pushes), "bytes"}
		self := float64(wall-tot.busy) / float64(time.Millisecond) / float64(tot.pushes)
		rep.layers["publisher.self_ms"] = metric{self, "ms"}
		rep.linef("decompose sync: wall %.4f s = replica handlers %.4f s + publisher self %.4f s over %d pushes",
			wall.Seconds(), tot.busy.Seconds(), (wall - tot.busy).Seconds(), tot.pushes)
	}

	// The store functions the push path calls, each timed alone over
	// every bundle of the history.
	var bundles []*store.Bundle
	for name, n := range src.Watermarks() {
		for v := 1; v <= n; v++ {
			b, _ := src.Get(name, v)
			bundles = append(bundles, b)
		}
	}
	perBundle := func(fn func(*store.Bundle)) float64 {
		var passes []float64
		for p := 0; p < 5; p++ {
			start := time.Now()
			for _, b := range bundles {
				fn(b)
			}
			passes = append(passes, float64(time.Since(start))/float64(time.Microsecond)/float64(len(bundles)))
		}
		return median(passes)
	}
	rep.layers["store.encode_us"] = metric{perBundle(func(b *store.Bundle) { _, _ = b.Encode() }), "us"}
	rep.layers["store.canonical_us"] = metric{perBundle(func(b *store.Bundle) { _ = b.CanonicalBytes() }), "us"}
	rep.layers["store.digest_us"] = metric{perBundle(func(b *store.Bundle) { _ = b.Digest() }), "us"}
	return rep, nil
}
