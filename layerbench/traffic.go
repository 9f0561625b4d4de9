package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// endpoint is an in-process HTTP server on a loopback listener.
type endpoint struct {
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// close shuts the server down and waits for Serve to return.
func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a timed-out drain still closes the listener
	<-e.done
}

// client drives one endpoint over at most conns keep-alive connections.
type client struct {
	hc *http.Client
	tr *tracer
}

func newClient(conns int, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is one answered request.
type result struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// failed reports whether the request counts as a failed operation: a
// transport error, a non-200 status, or a per-item error inside a batch.
func (r result) failed() bool {
	return r.err != nil || r.status != http.StatusOK || bytes.Contains(r.body, []byte(`"error"`))
}

// post sends one request. parent > 0 opens a client span under parent and
// asks the server middleware to record its own span beneath it.
func (c *client) post(url string, body []byte, parent int32, reqID int64) result {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	var id int32
	if parent > 0 {
		id = c.tr.begin("client.request", parent, reqID)
	}
	req.Header.Set("Content-Type", "application/json")
	if id > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
		req.Header.Set("X-Request-ID", strconv.FormatInt(reqID, 10))
	}
	res := result{}
	resp, err := c.hc.Do(req)
	if err == nil {
		res.status = resp.StatusCode
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	res.err = err
	res.latency = time.Since(start)
	if id > 0 {
		c.tr.end(id, int64(len(body)), int64(len(res.body)), 0)
	}
	return res
}

// pass accumulates one query phase over the rounds it is replayed in.
type pass struct {
	latencies []time.Duration // in stream order
	traced    []bool          // whether request i carried server spans
	rounds    []round
	kept      [][]byte // the first bodies, for checks against direct calls
	attempted int
	failed    int
	h         hash.Hash // SHA-256 over every (status, body) in order
}

// round is one contiguous slice of a pass.
type round struct {
	from, to int // request indexes
	elapsed  time.Duration
}

func (p *pass) digest() [32]byte {
	var sum [32]byte
	if p.h != nil {
		copy(sum[:], p.h.Sum(nil))
	}
	return sum
}

// roundMedian returns the median over rounds of f applied to each round
// that sent requests.
func (p *pass) roundMedian(f func(r round) float64) float64 {
	var vals []float64
	for _, r := range p.rounds {
		if r.to > r.from {
			vals = append(vals, f(r))
		}
	}
	return median(vals)
}

func addToDigest(h hash.Hash, r result) {
	fmt.Fprintf(h, "%d %d\n", r.status, len(r.body))
	h.Write(r.body)
}

// closedLoop sends bodies in order over one connection, each after the
// previous answer, and appends them to p as one round, keeping the first
// keep response bodies of the pass. Under a phase span every request gets a
// client span; with serverSpans set, every other request (starting with the
// first) also asks the servers to record theirs, and the rest stay untraced
// below the client, so the overhead of tracing is the difference between
// the two halves.
func (c *client) closedLoop(p *pass, url string, bodies [][]byte, keep int, phase int32, serverSpans bool) {
	if p.h == nil {
		p.h = sha256.New()
	}
	r := round{from: len(p.latencies)}
	start := time.Now()
	for _, b := range bodies {
		i := len(p.latencies)
		var res result
		traced := serverSpans && i%2 == 0
		if traced {
			res = c.post(url, b, phase, int64(i))
		} else {
			id := c.tr.begin("client.untraced", phase, int64(i))
			res = c.post(url, b, 0, 0)
			c.tr.end(id, int64(len(b)), int64(len(res.body)), 0)
		}
		p.latencies = append(p.latencies, res.latency)
		p.traced = append(p.traced, traced)
		p.attempted++
		if res.failed() {
			p.failed++
		}
		addToDigest(p.h, res)
		if i < keep {
			p.kept = append(p.kept, res.body)
		}
	}
	r.to, r.elapsed = len(p.latencies), time.Since(start)
	p.rounds = append(p.rounds, r)
}

// openResult is the outcome of an open-loop phase.
type openResult struct {
	latencies []time.Duration // from each request's scheduled send
	late      []time.Duration // how late each send left
	attempted int
	failed    int
}

// openLoop schedules bodies at a fixed rate and sends them from conns
// senders, each request timed from when it was due. A sender that falls
// behind sends late, and that wait counts in the request's latency.
func (c *client) openLoop(url string, bodies [][]byte, rate float64, conns int, phase int32, reqBase int64) openResult {
	out := openResult{
		latencies: make([]time.Duration, len(bodies)),
		late:      make([]time.Duration, len(bodies)),
		attempted: len(bodies),
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					id := c.tr.begin("client.schedule_wait", phase, 0)
					time.Sleep(d)
					c.tr.end(id, 0, 0, 0)
				}
				out.late[i] = max(0, time.Since(due))
				r := c.post(url, bodies[i], phase, reqBase+int64(i))
				out.latencies[i] = time.Since(due)
				if r.failed() {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	out.failed = int(failed.Load())
	return out
}
