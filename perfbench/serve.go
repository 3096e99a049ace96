package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/gateway"
	"repro/internal/ml"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/trace"
)

// The serve round: batchesPerRound batch predicts of batchRows rows,
// each followed by pointsPerBatch point requests. The last batch of a
// round goes to the MLP, so the batch median is a linear (decode-bound)
// request and batch p90 an MLP (predict-bound) one.
const (
	batchRows       = 256
	batchesPerRound = 4
	pointsPerBatch  = 12
	serveReplicas   = 2
	serveSetups     = 5
	serveWarmRounds = 20
	roundsPerWindow = 10
)

// mlpHidden sizes the served MLP so its batch predict costs about as
// much as decoding the batch.
var mlpHidden = []int{128, 64}

// serveReq is one request of the fixed round, with the canonical reply
// the primary store's handlers give for it.
type serveReq struct {
	batch  bool
	method string
	path   string
	body   []byte
	want   []byte
}

// fleet is the read path: gateway → replicas → store handlers, over
// loopback HTTP.
type fleet struct {
	gw     *gateway.Gateway
	url    string
	client *http.Client
	stops  []func()
}

func (f *fleet) close() {
	f.client.CloseIdleConnections()
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
}

// serveModels publishes the served releases and returns the round's
// requests, each checked against ml.PredictBatch on the published spec.
func serveModels(seed uint64) (*store.Store, []serveReq, map[string][][]float64, error) {
	src := store.New()
	r := rng.New(rng.MixSeed(seed, 1))
	w := make([]float64, taxi.FeatureDim)
	for i := range w {
		w[i] = r.Float64()*2 - 1
	}
	linSpec, err := store.Serialize(&ml.LinearModel{Weights: w, Bias: r.Float64()})
	if err != nil {
		return nil, nil, nil, err
	}
	mlpSpec, err := store.Serialize(ml.NewMLP(ml.Regression, taxi.FeatureDim, mlpHidden, r))
	if err != nil {
		return nil, nil, nil, err
	}
	speeds := make([]float64, 24)
	for i := range speeds {
		speeds[i] = 20 + 15*r.Float64()
	}
	blocks := make([]data.BlockID, 24)
	for i := range blocks {
		blocks[i] = data.BlockID(i)
	}
	for _, m := range []struct {
		name string
		spec store.ModelSpec
	}{{"taxi-lr", linSpec}, {"taxi-mlp", mlpSpec}} {
		for v := 1; v <= 3; v++ {
			src.Publish(store.Bundle{
				Name: m.name, Model: m.spec,
				Features: map[string][]float64{"hour_speed": speeds},
				Provenance: store.Provenance{
					Pipeline: m.name, Blocks: blocks, Decision: "accept", Quality: 0.03 + 0.001*float64(v),
				},
			})
		}
	}

	ds := taxi.Pipeline(batchesPerRound*batchRows, 0, 24*7, 0, 0, rng.MixSeed(seed, 2))
	if len(ds.Examples) < batchesPerRound*batchRows {
		return nil, nil, nil, fmt.Errorf("taxi pipeline gave %d rows, need %d", len(ds.Examples), batchesPerRound*batchRows)
	}
	rowsOf := map[string][][]float64{}
	primary := store.NewServer(src).Handler()
	var reqs []serveReq
	for b := 0; b < batchesPerRound; b++ {
		model := "taxi-lr"
		if b == batchesPerRound-1 {
			model = "taxi-mlp"
		}
		rows := make([][]float64, batchRows)
		for i := range rows {
			rows[i] = ds.Examples[b*batchRows+i].Features
		}
		rowsOf[model] = rows
		body, _ := json.Marshal(map[string]any{"rows": rows})
		reqs = append(reqs, serveReq{batch: true, method: http.MethodPost, path: "/predict/batch?model=" + model, body: body})
		for p := 0; p < pointsPerBatch; p++ {
			k := b*pointsPerBatch + p
			pm := []string{"taxi-lr", "taxi-mlp"}[k%2]
			switch k % 3 {
			case 0:
				body, _ := json.Marshal(map[string]any{"features": rows[k%batchRows]})
				reqs = append(reqs, serveReq{method: http.MethodPost, path: "/predict?model=" + pm, body: body})
			case 1:
				reqs = append(reqs, serveReq{method: http.MethodGet, path: fmt.Sprintf("/features?model=%s&key=hour_speed&index=%d", pm, k%24)})
			default:
				reqs = append(reqs, serveReq{method: http.MethodGet, path: "/models/" + pm + "/provenance"})
			}
		}
	}
	specs := map[string]store.ModelSpec{"taxi-lr": linSpec, "taxi-mlp": mlpSpec}
	for i := range reqs {
		rq := &reqs[i]
		rec := httptest.NewRecorder()
		primary.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, bytes.NewReader(rq.body)))
		if rec.Code != http.StatusOK {
			return nil, nil, nil, fmt.Errorf("primary %s %s: %d %s", rq.method, rq.path, rec.Code, rec.Body.String())
		}
		rq.want = rec.Body.Bytes()
		if err := checkPrediction(rq, specs); err != nil {
			return nil, nil, nil, err
		}
	}
	return src, reqs, rowsOf, nil
}

// checkPrediction verifies a predict reply against ml.PredictBatch on
// the published spec, bit for bit.
func checkPrediction(rq *serveReq, specs map[string]store.ModelSpec) error {
	if !strings.HasPrefix(rq.path, "/predict") {
		return nil
	}
	name := rq.path[strings.Index(rq.path, "model=")+len("model="):]
	m, err := specs[name].Instantiate()
	if err != nil {
		return err
	}
	var rows [][]float64
	var got []float64
	if rq.batch {
		var in struct{ Rows [][]float64 }
		var out struct{ Predictions []*float64 }
		if err := json.Unmarshal(rq.body, &in); err != nil {
			return err
		}
		if err := json.Unmarshal(rq.want, &out); err != nil {
			return err
		}
		rows = in.Rows
		for _, p := range out.Predictions {
			if p == nil {
				return fmt.Errorf("%s: null prediction", rq.path)
			}
			got = append(got, *p)
		}
	} else {
		var in struct{ Features []float64 }
		var out struct{ Prediction float64 }
		if err := json.Unmarshal(rq.body, &in); err != nil {
			return err
		}
		if err := json.Unmarshal(rq.want, &out); err != nil {
			return err
		}
		rows, got = [][]float64{in.Features}, []float64{out.Prediction}
	}
	want := make([]float64, len(rows))
	ml.PredictBatch(m, rows, want)
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d predictions for %d rows", rq.path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d predicted %v, ml.PredictBatch gives %v", rq.path, i, got[i], want[i])
		}
	}
	return nil
}

// newFleet stands up replicas synced from src and a gateway over them.
// With rec non-nil every hop is wrapped in a span-recording timer.
func newFleet(src *store.Store, rec *recorder) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	var urls []string
	for i := 0; i < serveReplicas; i++ {
		rep := replica.NewServer()
		var h http.Handler = rep.Handler()
		if rec != nil {
			h = timedHandler(rec, "replica", "upstream", h)
		}
		srv := httptest.NewServer(h)
		f.stops = append(f.stops, srv.Close)
		urls = append(urls, srv.URL)
	}
	if err := replica.NewPublisher(src, urls).Sync(); err != nil {
		f.close()
		return nil, fmt.Errorf("syncing replicas: %w", err)
	}
	upstream := &http.Transport{MaxIdleConnsPerHost: 4}
	f.stops = append(f.stops, upstream.CloseIdleConnections)
	var rt http.RoundTripper = upstream
	if rec != nil {
		rt = &timedTransport{next: upstream, rec: rec}
	}
	gw, err := gateway.New(gateway.Config{Backends: urls, Transport: rt})
	if err != nil {
		f.close()
		return nil, err
	}
	gw.Start()
	f.gw = gw
	f.stops = append(f.stops, gw.Stop)
	var h http.Handler = gw.Handler()
	if rec != nil {
		h = timedHandler(rec, "gateway", "client", h)
	}
	srv := httptest.NewServer(h)
	f.url = srv.URL
	f.stops = append(f.stops, srv.Close)
	return f, nil
}

// do sends one request and checks the reply against the canonical bytes.
func (f *fleet) do(rq *serveReq, id uint64, buf *bytes.Buffer) error {
	req, err := http.NewRequest(rq.method, f.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return err
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(trace.Header, traceparent(id))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", rq.method, rq.path, resp.StatusCode)
	}
	if !bytes.Equal(buf.Bytes(), rq.want) {
		return fmt.Errorf("%s %s: reply differs from the primary's", rq.method, rq.path)
	}
	return nil
}

// serveLoad is one closed-loop client's timed phase.
type serveLoad struct {
	m            meter
	batch, point []float64       // latency samples in ms; +Inf for a failed op
	classOf      map[uint64]bool // request id → batch, traced run only
	nextID       uint64
}

// drive runs whole rounds until seconds have passed; every
// roundsPerWindow rounds close one meter window.
func (s *serveLoad) drive(f *fleet, reqs []serveReq, seconds float64, ops *opLedger, phase string, rec *recorder) {
	var buf bytes.Buffer
	s.m.begin()
	defer s.m.end()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		s.m.start()
		for r := 0; r < roundsPerWindow; r++ {
			for i := range reqs {
				rq := &reqs[i]
				var id uint64
				if rec != nil {
					s.nextID++
					id = s.nextID
					s.classOf[id] = rq.batch
				}
				start := time.Now()
				err := f.do(rq, id, &buf)
				end := time.Now()
				rec.add(id, "client", "", start, end)
				ops.record(phase, err)
				ms := float64(end.Sub(start)) / float64(time.Millisecond)
				if err != nil {
					ms = math.Inf(1)
				}
				if rq.batch {
					s.batch = append(s.batch, ms)
				} else {
					s.point = append(s.point, ms)
				}
			}
		}
		s.m.stop(int64(roundsPerWindow * len(reqs)))
	}
}

func runServe(e *env) (*report, error) {
	rep := newReport()
	src, reqs, rowsOf, err := serveModels(e.seed)
	if err != nil {
		return nil, fmt.Errorf("building the served releases: %w", err)
	}

	// Set-up: fleet + replica sync + warm rounds, several times; the
	// median is setup_s and the last fleet serves the timed phase.
	var setups []float64
	var setupCal calibrator
	var f *fleet
	setupCal.begin()
	for i := 0; i < serveSetups; i++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		f, err = newFleet(src, nil)
		if err != nil {
			setupCal.end()
			return nil, err
		}
		var buf bytes.Buffer
		for r := 0; r < serveWarmRounds; r++ {
			for j := range reqs {
				err := f.do(&reqs[j], 0, &buf)
				rep.ops.record("warm", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setupCal.end()

	seconds := e.seconds
	if e.traced {
		seconds /= 2
	}
	plain := &serveLoad{}
	plain.drive(f, reqs, seconds, rep.ops, "timed", nil)
	f.close()
	rep.addMeter(&plain.m, setups, &setupCal)
	serveLatencies(rep, plain)

	if e.traced {
		if err := serveTraced(e, rep, src, reqs, rowsOf, seconds, &plain.m); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// serveLatencies reports the client-side percentiles per class.
func serveLatencies(rep *report, s *serveLoad) {
	for _, c := range []struct {
		name    string
		samples []float64
	}{{"batch", s.batch}, {"point", s.point}} {
		sm := summarize(c.samples)
		rep.e2e[c.name+"_p50_ms"] = metric{sm.P50, "ms"}
		rep.e2e[c.name+"_p90_ms"] = metric{sm.P90, "ms"}
		rep.linef("tail %s p%g %.4g ms (n=%d, %d beyond)", c.name, sm.TailPct, sm.Tail, sm.N, sm.Beyond)
	}
}

// serveTraced runs the traced half on a fresh wrapped fleet and turns
// its spans into per-layer self times.
func serveTraced(e *env, rep *report, src *store.Store, reqs []serveReq, rowsOf map[string][][]float64, seconds float64, plain *meter) error {
	f, err := newFleet(src, e.rec)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for j := range reqs {
		rep.ops.record("warm", f.do(&reqs[j], 0, &buf))
	}
	traced := &serveLoad{classOf: map[uint64]bool{}}
	traced.drive(f, reqs, seconds, rep.ops, "traced", e.rec)
	st := f.gw.Status()
	f.close()
	rep.overhead(plain, &traced.m)

	spans := e.rec.snapshot()
	self := selfTimes(spans)
	type acc struct{ client, transport, gwSelf, upstream, replica, covered float64 }
	sums := map[bool]*acc{true: {}, false: {}}
	counts := map[bool]float64{}
	for i, s := range spans {
		batch, ok := traced.classOf[s.ID]
		if !ok {
			continue
		}
		a := sums[batch]
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		a.covered += ms(self[i])
		switch s.Name {
		case "client":
			a.client += ms(s.dur())
			a.transport += ms(self[i])
			counts[batch]++
		case "gateway":
			a.gwSelf += ms(self[i])
		case "upstream":
			a.upstream += ms(s.dur())
			a.transport += ms(self[i])
		case "replica":
			a.replica += ms(s.dur())
		}
	}
	for _, batch := range []bool{true, false} {
		a, n := sums[batch], counts[batch]
		if n == 0 {
			return errors.New("traced run recorded no client spans")
		}
		class := map[bool]string{true: "batch", false: "point"}[batch]
		rep.layers["gateway."+class+"_self_ms"] = metric{a.gwSelf / n, "ms"}
		rep.layers["gateway.upstream_"+class+"_ms"] = metric{a.upstream / n, "ms"}
		rep.layers["replica."+class+"_ms"] = metric{a.replica / n, "ms"}
		rep.layers["transport."+class+"_ms"] = metric{a.transport / n, "ms"}
		rem := (a.client - a.covered) / n
		rep.linef("decompose %s: client %.4f ms = transport %.4f + gateway self %.4f + replica %.4f + remainder %.4f",
			class, a.client/n, a.transport/n, a.gwSelf/n, a.replica/n, rem)
	}

	var total float64
	for _, b := range st.Backends {
		total += float64(b.Requests)
	}
	rep.layers["gateway.retries"] = metric{float64(st.Retries), "count"}
	if total > 0 {
		rep.layers["gateway.backend_share"] = metric{float64(st.Backends[0].Requests) / total, "ratio"}
	}

	for name, key := range map[string]string{"taxi-lr": "ml.predict_lin_ms", "taxi-mlp": "ml.predict_mlp_ms"} {
		b, ok := src.Latest(name)
		if !ok {
			return fmt.Errorf("no release of %s", name)
		}
		m, err := b.Model.Instantiate()
		if err != nil {
			return err
		}
		rep.layers[key] = metric{predictMS(m, rowsOf[name]), "ms"}
	}
	return nil
}

// predictMS is the median time of a direct ml.PredictBatch on rows.
func predictMS(m ml.Model, rows [][]float64) float64 {
	out := make([]float64, len(rows))
	var times []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		ml.PredictBatch(m, rows, out)
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(times)
}
