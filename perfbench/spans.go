package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around the calls and handlers it wires together. Spans of one request
// share ID, carried in the traceparent header the gateway forwards.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, at exit.
// A nil recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) add(id uint64, name, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	raw, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its children (spans of the same ID whose Parent
// names it), keyed by span index.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[uint64][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	self := make([]time.Duration, len(spans))
	for _, idx := range byID {
		for _, i := range idx {
			p := spans[i]
			var kids [][2]int64
			for _, j := range idx {
				if c := spans[j]; j != i && c.Parent == p.Name {
					kids = append(kids, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
				}
			}
			self[i] = p.dur() - time.Duration(covered(kids))
		}
	}
	return self
}

// covered is the length of the union of the given [start, end) intervals.
func covered(iv [][2]int64) int64 {
	// Few children per span: a quadratic sweep over sorted starts is fine.
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if !open || v[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v[0], v[1], true
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// traceparent encodes id as a W3C traceparent whose trace id carries it.
func traceparent(id uint64) string {
	var tid trace.TraceID
	binary.BigEndian.PutUint64(tid[8:], id)
	var sid trace.SpanID
	binary.BigEndian.PutUint64(sid[:], id)
	return trace.FormatTraceparent(tid, sid)
}

// requestID recovers the id traceparent encoded; 0 when absent.
func requestID(h http.Header) uint64 {
	tid, _, ok := trace.ParseTraceparent(h.Get(trace.Header))
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(tid[8:])
}

// timedHandler records one span per request that carries a request id.
func timedHandler(rec *recorder, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if id := requestID(r.Header); id != 0 {
			rec.add(id, name, parent, start, time.Now())
		}
	})
}

// timedTransport records one span per upstream attempt, from the
// RoundTrip call until the response body is read to EOF or closed.
type timedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := requestID(req.Header)
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if id == 0 {
		return resp, err
	}
	if err != nil {
		t.rec.add(id, "upstream", "gateway", start, time.Now())
		return resp, err
	}
	resp.Body = &timedBody{Body: resp.Body, done: func() { t.rec.add(id, "upstream", "gateway", start, time.Now()) }}
	return resp, nil
}

type timedBody struct {
	Body io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.Body.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.Body.Close()
}
