package server

// The public /v1 query API, written once for both serving modes. A Frontend
// registers the query routes over a Resolver, and each request is answered
// by the Backend the resolver returns: a loaded sketch (registry entry) in a
// single process, or a shard fleet behind the coordinator
// (internal/cluster). The handlers own every request rule — body decoding,
// shape checks, seed canonicalisation, batch dedup, error messages, write
// deadlines and the response encoding — so the two modes answer with the
// same bytes by construction. A backend only counts.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"imdist/internal/graph"
)

// Limits bound what one request may ask of either serving mode and how long
// the serve loop waits on a client; Config and cluster.Config both embed
// it. The zero value of every field selects its default.
type Limits struct {
	// MaxBodyBytes limits request body sizes (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxSeeds limits the seed-set size of /v1/influence requests
	// (default DefaultMaxSeeds).
	MaxSeeds int
	// MaxK limits k for /v1/seeds and /v1/top (default DefaultMaxK).
	MaxK int
	// MaxBatchQueries limits the number of items per /v1/influence:batch
	// request (default DefaultMaxBatchQueries).
	MaxBatchQueries int
	// ReadTimeout and WriteTimeout bound the HTTP request read and response
	// write of the serve loop. Zero selects DefaultReadTimeout /
	// DefaultWriteTimeout; negative disables the limit entirely (trusted
	// networks with arbitrarily slow clients).
	ReadTimeout time.Duration
	// WriteTimeout: see ReadTimeout. Handlers that compute for a while reset
	// the write deadline after evaluation, so the configured budget applies
	// to writing the response rather than being consumed by computation.
	WriteTimeout time.Duration
}

// withDefaults fills in zero fields. Negative timeouts stay negative
// (disabled), so applying it twice changes nothing.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes == 0 {
		l.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if l.MaxSeeds == 0 {
		l.MaxSeeds = DefaultMaxSeeds
	}
	if l.MaxK == 0 {
		l.MaxK = DefaultMaxK
	}
	if l.MaxBatchQueries == 0 {
		l.MaxBatchQueries = DefaultMaxBatchQueries
	}
	if l.ReadTimeout == 0 {
		l.ReadTimeout = DefaultReadTimeout
	}
	if l.WriteTimeout == 0 {
		l.WriteTimeout = DefaultWriteTimeout
	}
	return l
}

// Frontend is the HTTP surface both serving modes share: a mux carrying the
// public query routes, the Limits they enforce, and the serve loop. Each
// mode adds its own routes (administration, shard primitives, /healthz)
// with HandleFunc.
type Frontend struct {
	mux     *http.ServeMux
	limits  Limits
	resolve Resolver
}

// NewFrontend registers the public query routes — POST influence,
// influence:batch and seeds, GET top, each unnamed (/v1/...) and named
// (/v1/sketches/{sketch}/...) — answered by the backends resolve returns.
func NewFrontend(lim Limits, resolve Resolver) *Frontend {
	f := &Frontend{mux: http.NewServeMux(), limits: lim.withDefaults(), resolve: resolve}
	for _, prefix := range []string{"/v1", "/v1/sketches/{sketch}"} {
		f.mux.HandleFunc("POST "+prefix+"/influence", f.handleInfluence)
		f.mux.HandleFunc("POST "+prefix+"/influence:batch", f.handleBatchInfluence)
		f.mux.HandleFunc("POST "+prefix+"/seeds", f.handleSeeds)
		f.mux.HandleFunc("GET "+prefix+"/top", f.handleTop)
	}
	return f
}

// Limits returns the limits in force, defaults filled in.
func (f *Frontend) Limits() Limits { return f.limits }

// Handler returns the HTTP handler serving every registered route.
func (f *Frontend) Handler() http.Handler { return f.mux }

// HandleFunc registers a mode-specific route next to the query routes.
func (f *Frontend) HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request)) {
	f.mux.HandleFunc(pattern, handler)
}

// httpServer builds the net/http server ListenAndServe runs, applying the
// configured timeouts.
func (f *Frontend) httpServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           f.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       max(f.limits.ReadTimeout, 0),
		WriteTimeout:      max(f.limits.WriteTimeout, 0),
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to shutdownGrace.
func (f *Frontend) ListenAndServe(ctx context.Context, addr string) error {
	srv := f.httpServer(addr)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// ctx is already cancelled on this path: deriving the drain timeout
		// from it would make Shutdown return immediately and tear down
		// in-flight requests instead of draining them.
		//imvet:allow ctxflow — shutdown drain must outlive the cancelled serve ctx; bounded by shutdownGrace
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeStatusError writes err with the status and message a *StatusError
// carries, or as a 500.
func writeStatusError(w http.ResponseWriter, err error) {
	status, msg := http.StatusInternalServerError, err.Error()
	var se *StatusError
	if errors.As(err, &se) {
		status, msg = se.Status, se.Msg
	}
	writeError(w, status, "%s", msg)
}

// extendWriteDeadline restarts the response write budget. net/http's
// WriteTimeout clock starts when the request is read, so a slow evaluation
// would otherwise eat the whole budget and cut large responses mid-stream;
// resetting after evaluation makes the configured timeout bound the write
// itself, which is the documented meaning of Limits.WriteTimeout.
func (f *Frontend) extendWriteDeadline(w http.ResponseWriter) {
	if f.limits.WriteTimeout > 0 {
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(f.limits.WriteTimeout))
	}
}

// decodeBody strictly decodes a size-limited JSON body into v.
func (f *Frontend) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, f.limits.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return false
	}
	return true
}

// backendFor resolves the request's backend ({sketch} path segment, "" on
// the unnamed routes). On failure the resolver's error has been written.
func (f *Frontend) backendFor(w http.ResponseWriter, r *http.Request) (Backend, func(), bool) {
	b, release, err := f.resolve(r.PathValue("sketch"))
	if err != nil {
		writeStatusError(w, err)
		return nil, nil, false
	}
	if release == nil {
		release = func() {}
	}
	return b, release, true
}

// canonicalSeeds sorts and deduplicates seeds in int space, so an
// out-of-range id can never be merged with the id its conversion to
// graph.VertexID would wrap to.
func canonicalSeeds(seeds []int) []int {
	out := slices.Clone(seeds)
	slices.Sort(out)
	return slices.Compact(out)
}

// CanonicalSeeds sorts and deduplicates seeds so equivalent seed sets share
// one cache entry and one oracle evaluation. Callers range-check first: the
// conversion to graph.VertexID wraps ids beyond int32.
func CanonicalSeeds(seeds []int) []graph.VertexID {
	return toVertexIDs(canonicalSeeds(seeds))
}

func toVertexIDs(seeds []int) []graph.VertexID {
	out := make([]graph.VertexID, len(seeds))
	for i, v := range seeds {
		out[i] = graph.VertexID(v)
	}
	return out
}

// inRange reports whether a canonical (ascending) seed set lies in [0, n).
func inRange(seeds []int, n int) bool {
	return len(seeds) == 0 || (seeds[0] >= 0 && seeds[len(seeds)-1] < n)
}

// seedsKey renders a canonical seed set, after prefix, as a cache or dedup
// key; a backend's prefix is its own identity. Varints are self-delimiting,
// so distinct sets get distinct keys.
func seedsKey(prefix string, seeds []int) string {
	var b strings.Builder
	b.Grow(len(prefix) + 2 + 3*len(seeds))
	b.WriteString(prefix)
	b.WriteString("s:")
	var buf [binary.MaxVarintLen64]byte
	for _, v := range seeds {
		b.Write(binary.AppendVarint(buf[:0], int64(v)))
	}
	return b.String()
}

// shapeError is the part of influence-seed validation that needs no vertex
// count: a user-facing message, or "" when the shape is valid.
func (l Limits) shapeError(seeds []int) string {
	if len(seeds) == 0 {
		return "seeds must be non-empty"
	}
	if len(seeds) > l.MaxSeeds {
		return fmt.Sprintf("too many seeds: %d > %d", len(seeds), l.MaxSeeds)
	}
	return ""
}

// rangeError names the first of a request's own raw seeds outside [0, n),
// or returns "" when there is none.
func rangeError(seeds []int, n int) string {
	for _, v := range seeds {
		if v < 0 || v >= n {
			return fmt.Sprintf("seed vertex %d not in [0, %d)", v, n)
		}
	}
	return ""
}

type influenceRequest struct {
	Seeds []int `json:"seeds"`
}

// InfluenceResponse is the body of a /v1/influence answer.
type InfluenceResponse struct {
	Influence float64 `json:"influence"`
	CI99      float64 `json:"ci99"`
	Seeds     int     `json:"seeds"`
}

func (f *Frontend) handleInfluence(w http.ResponseWriter, r *http.Request) {
	b, release, ok := f.backendFor(w, r)
	if !ok {
		return
	}
	defer release()
	var req influenceRequest
	if !f.decodeBody(w, r, &req) {
		return
	}
	if msg := f.limits.shapeError(req.Seeds); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	seeds := canonicalSeeds(req.Seeds)
	hits, scale, err := b.Coverage(r.Context(), seeds)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	if msg := rangeError(req.Seeds, scale.Vertices); msg != "" {
		writeError(w, http.StatusBadRequest, "%s", msg)
		return
	}
	writeJSON(w, http.StatusOK, InfluenceResponse{
		Influence: scale.Influence(hits),
		CI99:      scale.HalfWidth(2.576),
		Seeds:     len(seeds),
	})
}

// BatchItem is one element of a /v1/influence:batch response. A valid item
// carries the same fields as a /v1/influence response; an invalid one carries
// only an error message, so a single bad query never fails the whole batch.
// Repeated queries in one batch share a single *InfluenceResponse, which
// encodes identically either way.
type BatchItem struct {
	*InfluenceResponse
	Error string `json:"error,omitempty"`
}

func (f *Frontend) handleBatchInfluence(w http.ResponseWriter, r *http.Request) {
	b, release, ok := f.backendFor(w, r)
	if !ok {
		return
	}
	defer release()
	var reqs []influenceRequest
	if !f.decodeBody(w, r, &reqs) {
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "batch must be a non-empty JSON array of influence requests")
		return
	}
	if len(reqs) > f.limits.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, "too many batch queries: %d > %d", len(reqs), f.limits.MaxBatchQueries)
		return
	}
	items := make([]BatchItem, len(reqs))
	// Deduplicate the shape-valid items by canonical seed set, so a batch of
	// repeated hotspot queries costs one evaluation per distinct set and its
	// repeats share one response.
	setOf := make([]int, len(reqs)) // item -> index into sets, -1 if rejected
	sets := make([][]int, 0, len(reqs))
	byKey := make(map[string]int, len(reqs))
	for i, req := range reqs {
		setOf[i] = -1
		if msg := f.limits.shapeError(req.Seeds); msg != "" {
			items[i].Error = msg
			continue
		}
		canon := canonicalSeeds(req.Seeds)
		key := seedsKey("", canon)
		j, seen := byKey[key]
		if !seen {
			j = len(sets)
			byKey[key] = j
			sets = append(sets, canon)
		}
		setOf[i] = j
	}
	if len(sets) > 0 {
		counts, scale, err := b.BatchCoverage(r.Context(), sets)
		if err != nil {
			writeStatusError(w, err)
			return
		}
		ci := scale.HalfWidth(2.576)
		resps := make([]InfluenceResponse, len(sets))
		for j, set := range sets {
			resps[j] = InfluenceResponse{Influence: scale.Influence(counts[j]), CI99: ci, Seeds: len(set)}
		}
		for i, j := range setOf {
			if j < 0 {
				continue
			}
			if msg := rangeError(reqs[i].Seeds, scale.Vertices); msg != "" {
				items[i].Error = msg
				continue
			}
			items[i].InfluenceResponse = &resps[j]
		}
	}
	// Large batches can spend a while in evaluation; give the response write
	// its full configured budget instead of whatever the evaluation left.
	f.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, items)
}

type seedsRequest struct {
	K int `json:"k"`
}

// SeedsResponse is the body of a /v1/seeds answer.
type SeedsResponse struct {
	Seeds     []int   `json:"seeds"`
	Influence float64 `json:"influence"`
}

func (f *Frontend) handleSeeds(w http.ResponseWriter, r *http.Request) {
	b, release, ok := f.backendFor(w, r)
	if !ok {
		return
	}
	defer release()
	var req seedsRequest
	if !f.decodeBody(w, r, &req) {
		return
	}
	if req.K < 1 || req.K > f.limits.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", f.limits.MaxK, req.K)
		return
	}
	seeds, covered, scale, err := b.Greedy(r.Context(), req.K)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	resp := SeedsResponse{Seeds: make([]int, len(seeds)), Influence: scale.Influence(covered)}
	for i, v := range seeds {
		resp.Seeds[i] = int(v)
	}
	f.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, resp)
}

// TopResponse is the body of a /v1/top answer.
type TopResponse struct {
	Vertices   []int     `json:"vertices"`
	Influences []float64 `json:"influences"`
}

func (f *Frontend) handleTop(w http.ResponseWriter, r *http.Request) {
	b, release, ok := f.backendFor(w, r)
	if !ok {
		return
	}
	defer release()
	// The default must respect MaxK, or a bare GET /v1/top would 400 on
	// servers configured with MaxK < 10.
	k := min(10, f.limits.MaxK)
	if q := r.URL.Query().Get("k"); q != "" {
		parsed, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid k %q", q)
			return
		}
		k = parsed
	}
	if k < 1 || k > f.limits.MaxK {
		writeError(w, http.StatusBadRequest, "k must be in [1, %d], got %d", f.limits.MaxK, k)
		return
	}
	vs, counts, scale, err := b.Top(r.Context(), k)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	resp := TopResponse{Vertices: make([]int, len(vs)), Influences: make([]float64, len(vs))}
	for i, v := range vs {
		resp.Vertices[i] = int(v)
		resp.Influences[i] = scale.Influence(counts[i])
	}
	f.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, resp)
}
