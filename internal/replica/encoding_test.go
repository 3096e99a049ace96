package replica

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/store"
)

// TestPushBodyIsCanonicalBytes pins the one-encoding contract: an
// identity-encoded push body is the release's canonical bytes, so the
// bytes on the wire are exactly the digest preimage the replica
// verifies and the record the primary's write-ahead log journals.
func TestPushBodyIsCanonicalBytes(t *testing.T) {
	rep := NewServer()
	var mu sync.Mutex
	var body []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			body = raw
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	src := store.New()
	src.Publish(benchBundle(1))
	if err := NewPublisher(src, []string{srv.URL}, WithoutCompression()).Push("bench", 1); err != nil {
		t.Fatal(err)
	}
	bundle, _ := src.Get("bench", 1)
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(body, bundle.CanonicalBytes()) {
		t.Fatalf("push body (%d bytes) is not the bundle's canonical bytes (%d bytes)", len(body), len(bundle.CanonicalBytes()))
	}
	if sha256.Sum256(body) != bundle.Digest() {
		t.Fatal("sha256 of the push body is not the release digest")
	}
	if rep.Store().VersionCount("bench") != 1 {
		t.Fatal("canonical push body not applied")
	}
}

// TestPushRejectsNonCanonicalBody checks that a body which is not
// canonical bytes is a 400 counted as bad_body and applies nothing.
func TestPushRejectsNonCanonicalBody(t *testing.T) {
	rep, srv := newReplica(t)
	src := store.New()
	src.Publish(benchBundle(1))
	src.Publish(benchBundle(2))
	if err := NewPublisher(src, []string{srv.URL}).Push("bench", 1); err != nil {
		t.Fatal(err)
	}
	next, _ := src.Get("bench", 2)
	for name, body := range map[string][]byte{
		"garbage":       []byte("not a bundle"),
		"trailing byte": append(next.CanonicalBytes(), 0),
	} {
		t.Run(name, func(t *testing.T) {
			before := badBodyPushes(t, srv.URL)
			code, reply := fetch(t, http.MethodPost, srv.URL+"/push", string(body))
			if code != http.StatusBadRequest {
				t.Fatalf("got %d (%s), want 400", code, reply)
			}
			if got := badBodyPushes(t, srv.URL); got != before+1 {
				t.Fatalf("bad_body pushes went %v -> %v, want +1", before, got)
			}
			if wm := rep.Store().VersionCount("bench"); wm != 1 {
				t.Fatalf("watermark moved to %d on a rejected body", wm)
			}
		})
	}
}

// badBodyPushes scrapes sage_replica_pushes_total{outcome="bad_body"}.
func badBodyPushes(t *testing.T, base string) float64 {
	t.Helper()
	code, raw := fetch(t, http.MethodGet, base+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	fams, err := metrics.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := fams.Value("sage_replica_pushes_total", map[string]string{"outcome": "bad_body"})
	if !ok {
		t.Fatal("no sage_replica_pushes_total{outcome=\"bad_body\"} series")
	}
	return v
}
