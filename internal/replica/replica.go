// Package replica implements Sage's replicated serving tier: the last
// hop of Fig. 1, where accepted models — "bundled with [their] feature
// transformation operators" — are *pushed into serving*. One
// trainer-side Publisher owns the authoritative store and pushes
// encoded bundles to N replica Servers; each replica atomically applies
// them into a local read-only store and answers the same HTTP API as
// the single-node server (shared handler code, so the two can never
// drift).
//
// # Push protocol
//
// Versions are assigned once, by the publisher's store, and carried
// inside the bundle. A push is POST /push with the bundle's canonical
// bytes (store.Bundle.CanonicalBytes) as the body — the same bytes the
// release digest hashes and the primary's write-ahead log journals. The
// replica decodes them strictly (store.DecodeCanonicalBundle), and its
// reply reports its *applied-version watermark* for that model name —
// watermark = n always means versions 1..n are applied, because the
// replica refuses gaps. The protocol is idempotent and self-healing:
//
//   - version == watermark+1 → applied, watermark advances.
//   - version <= watermark → duplicate. The replica verifies the
//     canonical digest (internal/core's audit serialization) against
//     the applied release and acks without reapplying; a digest
//     mismatch is a 409 — a release can never be silently replaced.
//   - version > watermark+1 → 409 with the watermark, and the
//     publisher backfills the missing versions in order. This is also
//     how a replica that joins late catches up: its watermark is 0, so
//     the first push triggers a backfill from version 1.
//
// Replica stores are read-only from the network's point of view: only
// /push mutates them, and application happens under the store's write
// lock, so a concurrent /predict sees either the old set of releases or
// the new one, never a half-applied bundle.
//
// Two wire-level options harden and cheapen the push path. /push can be
// gated behind a shared-secret bearer token (WithAuthToken on the
// server, the matching option on the Publisher): the mutating endpoint
// then rejects unauthenticated bodies with 401 before reading them,
// while the read API stays open. And push bodies may be gzip-compressed
// (Content-Encoding: gzip, the publisher's default for bodies past a
// small threshold) — wide released feature tables are highly
// redundant, so compression cuts fan-out bandwidth by integer factors;
// the replica decompresses transparently and enforces the same
// decoded-size cap as for identity bodies.
package replica

import (
	"compress/gzip"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxPushBodyBytes bounds one pushed bundle. Models at the paper's
// scale (taxi/criteo dims, small MLPs) are a few KB; 64 MiB leaves room
// for wide released aggregates without letting one connection pin
// unbounded memory.
const maxPushBodyBytes = 64 << 20

// PushStatus is a replica's reply to one push (and one entry of the
// status listing): the applied-version watermark after the push, and
// whether this delivery changed it.
type PushStatus struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Applied is true when this delivery advanced the store; false for
	// an idempotent re-delivery.
	Applied bool `json:"applied"`
	// Watermark is the replica's applied version count for Name: all of
	// versions 1..Watermark are present.
	Watermark int `json:"watermark"`
}

// Status is the reply to GET /replica/status — the health and lag
// signal the gateway tier routes on: a replica whose watermarks trail
// the fleet is drained (not killed) until it catches up, and Inflight
// exposes the replica's current serving load for observability.
type Status struct {
	// Watermarks maps model name → applied version count.
	Watermarks map[string]int `json:"watermarks"`
	Generation uint64         `json:"generation"`
	// Models is the number of distinct model names applied.
	Models int `json:"models"`
	// Inflight is the number of serving-API requests currently being
	// handled (push and status traffic excluded).
	Inflight int64 `json:"inflight"`
}

// gapResponse is the 409 body for out-of-order pushes: it carries the
// watermark so the publisher knows where to resume.
type gapResponse struct {
	Error     string `json:"error"`
	Name      string `json:"name"`
	Watermark int    `json:"watermark"`
}

// Server is one serving replica: a local store that only /push can
// mutate, behind the exact same serving handlers as the single-node
// tier (store.Server — shared code, not a copy), plus the push and
// status endpoints of the replication protocol.
type Server struct {
	store *store.Store
	srv   *store.Server
	// authToken, when non-empty, gates POST /push behind
	// "Authorization: Bearer <token>".
	authToken string
	// reg is the replica's metric registry, served at GET /metrics.
	// GET /replica/status reads the same handles — the registry is the
	// single source of truth, there is no parallel bookkeeping.
	reg *metrics.Registry
	// inflight counts serving-API requests currently in progress
	// (push, status, and metrics traffic excluded).
	inflight *metrics.Gauge
	// Push outcome counters, pre-resolved per outcome so the push path
	// does no registry lookups.
	pushApplied      *metrics.Counter
	pushDuplicate    *metrics.Counter
	pushGap          *metrics.Counter
	pushRejected     *metrics.Counter
	pushUnauthorized *metrics.Counter
	pushBadBody      *metrics.Counter
	pushSec          *metrics.Histogram
	// tracer, when non-nil, wraps the whole handler in a server span
	// (continuing any incoming traceparent — the gateway's attempt span)
	// and serves GET /debug/trace.
	tracer *trace.Tracer
}

// ServerOption configures a replica server.
type ServerOption func(*Server)

// WithAuthToken requires pushes to carry "Authorization: Bearer tok".
// An empty token leaves /push open (the default, for in-process tests
// and trusted networks). Only the mutating endpoint is gated; the read
// API a replica exists to serve stays public.
func WithAuthToken(tok string) ServerOption {
	return func(s *Server) { s.authToken = tok }
}

// WithTracer enables request tracing: every request runs under a
// server span continuing any incoming traceparent, and the handler
// serves GET /debug/trace. A nil tracer (the default) leaves the
// serving path untraced and unchanged.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// NewServer returns an empty replica. It serves nothing until a
// publisher pushes bundles into it.
func NewServer(opts ...ServerOption) *Server {
	st := store.New()
	reg := metrics.New()
	s := &Server{store: st, srv: store.NewServer(st), reg: reg}
	s.srv.Instrument(reg)
	s.inflight = reg.Gauge("sage_replica_inflight_requests",
		"Serving-API requests currently in progress.")
	outcome := func(o string) *metrics.Counter {
		return reg.Counter("sage_replica_pushes_total",
			"Push deliveries by outcome.", metrics.Label{Name: "outcome", Value: o})
	}
	s.pushApplied = outcome("applied")
	s.pushDuplicate = outcome("duplicate")
	s.pushGap = outcome("gap")
	s.pushRejected = outcome("rejected")
	s.pushUnauthorized = outcome("unauthorized")
	s.pushBadBody = outcome("bad_body")
	s.pushSec = reg.Histogram("sage_replica_push_seconds",
		"Latency of one POST /push delivery.", metrics.LatencyBuckets())
	reg.GaugeFunc("sage_replica_applied_versions_total",
		"Sum of applied-version watermarks across all model names.",
		func() float64 {
			total := 0
			for _, wm := range st.Watermarks() {
				total += wm
			}
			return float64(total)
		})
	reg.GaugeFunc("sage_replica_models",
		"Distinct model names applied.",
		func() float64 { return float64(len(st.Watermarks())) })
	for _, o := range opts {
		o(s)
	}
	return s
}

// Metrics exposes the replica's registry (tests scrape it without
// going through HTTP).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Store exposes the replica's local store (tests and diagnostics; the
// serving path never hands it out).
func (s *Server) Store() *store.Store { return s.store }

// Handler returns the replica's HTTP handler: the full single-node
// serving API plus POST /push, GET /replica/status, and GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /push", s.handlePush)
	mux.HandleFunc("GET /replica/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.tracer != nil {
		mux.Handle("GET /debug/trace", s.tracer.DebugHandler(func() any { return s.reg.Exemplars() }))
	}
	serving := s.srv.Handler()
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		serving.ServeHTTP(w, r)
	}))
	// Middleware on a nil tracer returns mux unchanged, so the untraced
	// replica serves the exact handler it always has.
	return s.tracer.Middleware(mux)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.TextExpose(w)
}

// authorized checks the shared-secret bearer token in constant time.
func (s *Server) authorized(r *http.Request) bool {
	if s.authToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.authToken
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	defer s.pushSec.ObserveSinceExemplar(time.Now(), trace.CtxTraceID(r.Context()))
	if !s.authorized(r) {
		s.pushUnauthorized.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="sage-replica"`)
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "push requires a valid bearer token"})
		return
	}
	// The byte cap applies to the *decoded* bundle: MaxBytesReader
	// bounds what is read off the wire, and for gzip bodies an extra
	// LimitReader bounds what decompression may expand to, so a
	// compression bomb cannot pin unbounded memory.
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxPushBodyBytes))
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(body)
		if err != nil {
			s.pushBadBody.Inc()
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad gzip body: " + err.Error()})
			return
		}
		defer gz.Close()
		body = io.LimitReader(gz, maxPushBodyBytes+1)
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		s.pushBadBody.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading bundle: " + err.Error()})
		return
	}
	if int64(len(raw)) > maxPushBodyBytes {
		s.pushBadBody.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bundle exceeds size limit after decompression"})
		return
	}
	b, err := store.DecodeCanonicalBundle(raw)
	if err != nil {
		s.pushBadBody.Inc()
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	applied, err := s.store.Apply(*b)
	if err != nil {
		if gap, ok := err.(*store.VersionGapError); ok {
			s.pushGap.Inc()
			writeJSON(w, http.StatusConflict, gapResponse{
				Error: gap.Error(), Name: gap.Name, Watermark: gap.Watermark,
			})
			return
		}
		// Digest mismatch (divergent release) or unversioned bundle.
		s.pushRejected.Inc()
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	if applied {
		s.pushApplied.Inc()
	} else {
		s.pushDuplicate.Inc()
	}
	writeJSON(w, http.StatusOK, PushStatus{
		Name: b.Name, Version: b.Version,
		Applied:   applied,
		Watermark: s.store.VersionCount(b.Name),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	wms := s.store.Watermarks()
	writeJSON(w, http.StatusOK, Status{
		Watermarks: wms,
		Generation: s.store.Generation(),
		Models:     len(wms),
		Inflight:   s.inflight.Value(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeStatus parses a push reply.
func decodeStatus(r io.Reader) (PushStatus, error) {
	var st PushStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return st, fmt.Errorf("replica: undecodable push reply: %w", err)
	}
	return st, nil
}
