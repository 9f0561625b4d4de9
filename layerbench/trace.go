package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds since
// the run started. Spans of one HTTP request share Req; a server-side span's
// Parent is the client span that sent the request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts recorded at the same boundary: request and response body bytes,
	// and for shard marginal requests the candidates asked for (-1 = all).
	BytesIn  int64 `json:"bytes_in,omitempty"`
	BytesOut int64 `json:"bytes_out,omitempty"`
	Items    int   `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run writes them out. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// coord is the coordinator span in flight. The coordinator does not
	// forward request ids to its shards, and the fleet phases run one client
	// connection, so a shard request belongs to the one coordinator request
	// open while it runs.
	coord atomic.Int32
}

const spanHeader = "X-Bench-Span"

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id and records its counts.
func (t *tracer) end(id int32, bytesIn, bytesOut int64, items int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.BytesIn, s.BytesOut, s.Items = end, bytesIn, bytesOut, items
	t.mu.Unlock()
}

// nowOrZero is now for a live tracer and 0 for a nil one.
func (t *tracer) nowOrZero() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// record adds a finished span that started at start and ends now, for calls
// timed from a callback rather than around the call.
func (t *tracer) record(name string, parent int32, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int32, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, 0)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id, 0, 0, 0)
	return d, err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span to path as one JSON document.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.snapshot()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// countingWriter counts response body bytes; Unwrap keeps
// http.ResponseController (write-deadline resets) working through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Middleware kinds: which span a wrapped handler records and how it finds
// its parent.
const (
	kindServer = iota // single-process server: parent from the client header
	kindCoord         // coordinator: parent from the client header; publishes itself to shards
	kindShard         // shard server: parent is the coordinator span in flight
)

// wrap returns h with a span around every request. Only requests whose
// client opened a span are recorded, so a phase can interleave traced and
// untraced requests and read the tracing overhead off the difference.
func (t *tracer) wrap(name string, kind int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int32
		if kind == kindShard {
			parent = t.coord.Load()
		} else if v := r.Header.Get(spanHeader); v != "" {
			p, _ := strconv.Atoi(v)
			parent = int32(p)
		}
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Request-ID"), 10, 64)
		id := t.begin(name, parent, req)
		if kind == kindCoord {
			t.coord.Store(id)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		if kind == kindCoord {
			t.coord.Store(0)
		}
		t.end(id, int64(len(body)), cw.n, marginalCandidates(r.URL.Path, body))
	})
}

// marginalCandidates returns how many candidates a shard marginal request
// asked for (-1 for all vertices), or 0 for any other request. It runs after
// the span has closed.
func marginalCandidates(path string, body []byte) int {
	if !strings.HasSuffix(path, "/marginal") {
		return 0
	}
	var req struct {
		Candidates []int `json:"candidates"`
	}
	if json.Unmarshal(body, &req) != nil || req.Candidates == nil {
		return -1
	}
	return len(req.Candidates)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of ivs clipped to [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// traceIndex answers self-time questions about a finished trace.
type traceIndex struct {
	spans    []span
	children map[int32][]int32
}

func indexTrace(spans []span) *traceIndex {
	ix := &traceIndex{spans: spans, children: make(map[int32][]int32)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

func (ix *traceIndex) get(id int32) span { return ix.spans[id-1] }

// covered returns how much of span id its children cover.
func (ix *traceIndex) covered(id int32) int64 {
	s := ix.get(id)
	kids := ix.children[id]
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		c := ix.get(k)
		ivs = append(ivs, interval{c.Start, c.End})
	}
	return unionLen(ivs, s.Start, s.End)
}

// self returns span id's duration minus the part its children cover.
func (ix *traceIndex) self(id int32) time.Duration {
	s := ix.get(id)
	return time.Duration(s.End - s.Start - ix.covered(id))
}

// under returns the ids of the spans named name whose parent is parent.
func (ix *traceIndex) under(parent int32, name string) []int32 {
	var out []int32
	for _, k := range ix.children[parent] {
		if ix.get(k).Name == name {
			out = append(out, k)
		}
	}
	return out
}

// explained returns the share of phase span id that its child spans cover.
func (ix *traceIndex) explained(id int32) float64 {
	s := ix.get(id)
	if s.End <= s.Start {
		return 1
	}
	return float64(ix.covered(id)) / float64(s.End-s.Start)
}
