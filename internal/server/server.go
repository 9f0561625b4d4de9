// Package server exposes loaded RR-sketch oracles (core.Oracle) over HTTP —
// the serve-many half of the build-once / serve-many pipeline. One process
// holds a registry of named sketches (many graphs, many diffusion models,
// many builds) and answers influence queries for any number of clients; each
// oracle's query path is concurrency-safe, so a single sketch in memory
// serves every connection.
//
// Endpoints (JSON):
//
//	POST /v1/sketches/{name}/influence        {"seeds":[0,5,9]}  -> {"influence":..,"ci99":..}
//	POST /v1/sketches/{name}/influence:batch  [{"seeds":[0]},..] -> [{"influence":..},..]
//	POST /v1/sketches/{name}/seeds            {"k":4}            -> {"seeds":[..],"influence":..}
//	GET  /v1/sketches/{name}/top?k=10                            -> {"vertices":[..],"influences":[..]}
//	GET  /v1/sketches                                            -> per-sketch metadata + cache stats
//	POST /v1/admin/sketches                   {"name":..,"path":..} -> load or hot-replace a sketch
//	DELETE /v1/admin/sketches/{name}                             -> unload a sketch
//	GET  /healthz                                                -> server + default-sketch summary
//
// The unnamed legacy routes (POST /v1/influence, POST /v1/influence:batch,
// POST /v1/seeds, GET /v1/top) alias a configurable default sketch, so
// single-sketch clients keep working unchanged.
//
// The four query routes are one handler set (Frontend, api.go) written
// against the Backend interface: a registry entry answers them here, and
// the cluster coordinator serves the same handlers over a shard fleet.
//
// Reloads are copy-on-swap: a replacement sketch becomes visible atomically,
// queries already in flight finish on the oracle they started with, and a
// memory-mapped sketch is unmapped only after its last query releases its
// reference (internal/sketchio refcounting).
//
// Results are memoized in a per-sketch LRU cache keyed by the sketch's
// identity (name, model, build seed, shape) plus the canonicalized request,
// so entries can never collide across sketches or across reloads that change
// a sketch's contents. Cold-cache /v1/seeds and /v1/top computations are
// single-flighted: concurrent identical requests share one greedy run.
// Request bodies are size-limited, and ListenAndServe drains in-flight
// requests on context cancellation.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"imdist/internal/core"
)

// Defaults for Config zero values.
const (
	DefaultCacheSize       = 4096
	DefaultMaxBodyBytes    = 1 << 20
	DefaultMaxSeeds        = 100_000
	DefaultMaxK            = 10_000
	DefaultMaxBatchQueries = 1024
	// DefaultSketchName is the name Config.Oracle is registered under when
	// Config.DefaultSketch does not say otherwise.
	DefaultSketchName = "default"
	// DefaultReadTimeout bounds how long a client may take to send a request.
	DefaultReadTimeout = 30 * time.Second
	// DefaultWriteTimeout bounds how long a response may take to compute and
	// write. It is sized for large /v1/influence:batch responses on slow
	// clients — the previous hard-coded 60s cut such responses mid-stream.
	DefaultWriteTimeout = 2 * time.Minute
	shutdownGrace       = 10 * time.Second
)

// Config configures a Server. The zero value of every field selects a
// sensible default; at least one sketch (Oracle or Sketches) is required
// unless AllowEmpty is set.
type Config struct {
	// Oracle, when non-nil, is registered as the default sketch under
	// DefaultSketch (or DefaultSketchName) — the single-sketch configuration.
	Oracle *core.Oracle
	// Sketches are additional named in-memory sketches to serve.
	Sketches map[string]*core.Oracle
	// DefaultSketch is the sketch name aliased by the legacy unnamed routes.
	// Empty means the name Oracle was registered under, else the first
	// sketch loaded.
	DefaultSketch string
	// AllowEmpty permits starting with no sketches loaded (they arrive later
	// via Registry().LoadFile or the admin endpoint, as imserve -sketch-dir
	// does). Queries 404 until a sketch is loaded.
	AllowEmpty bool
	// CacheSize is the maximum number of memoized query results per sketch
	// (default DefaultCacheSize; negative disables caching).
	CacheSize int
	// Limits bound request sizes and the serve loop's timeouts.
	Limits
	// BatchWorkers is the worker count handed to the oracle's sharded batch
	// engine for each /v1/influence:batch request. The zero value selects one
	// worker per CPU; 1 evaluates batches on the request goroutine.
	BatchWorkers int
	// BuildConcurrency is how many async sketch builds (/v1/admin/builds)
	// run at once (default DefaultBuildConcurrency).
	BuildConcurrency int
	// MaxQueuedBuilds bounds the async build queue (default
	// DefaultMaxQueuedBuilds); full-queue submissions get 503.
	MaxQueuedBuilds int
	// MaxBuildSets caps max_sets per submitted build (default
	// DefaultMaxBuildSets).
	MaxBuildSets int
}

// Server answers oracle queries over HTTP. Its Frontend carries the public
// query routes, answered by registry entries, and the serve loop.
type Server struct {
	*Frontend
	registry *Registry
	builds   *buildManager
	cfg      Config
	start    time.Time

	closeOnce sync.Once
}

// New validates cfg, fills in defaults and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if cfg.Oracle == nil && len(cfg.Sketches) == 0 && !cfg.AllowEmpty {
		return nil, errors.New("server: Config requires at least one sketch (Oracle or Sketches), or AllowEmpty")
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.BatchWorkers == 0 {
		cfg.BatchWorkers = -1
	}
	if cfg.BuildConcurrency < 1 {
		cfg.BuildConcurrency = DefaultBuildConcurrency
	}
	if cfg.MaxQueuedBuilds < 1 {
		cfg.MaxQueuedBuilds = DefaultMaxQueuedBuilds
	}
	if cfg.MaxBuildSets < 1 {
		cfg.MaxBuildSets = DefaultMaxBuildSets
	}
	s := &Server{
		registry: NewRegistry(cfg.CacheSize),
		cfg:      cfg,
		start:    time.Now(),
	}
	s.Frontend = NewFrontend(cfg.Limits, s.sketchBackend)
	s.registry.batchWorkers = cfg.BatchWorkers
	s.builds = newBuildManager(s.registry, cfg.BuildConcurrency, cfg.MaxQueuedBuilds, cfg.MaxBuildSets)
	if cfg.Oracle != nil {
		name := cfg.DefaultSketch
		if name == "" {
			name = DefaultSketchName
		}
		if err := s.registry.Register(name, cfg.Oracle); err != nil {
			return nil, err
		}
	}
	// Register named sketches in sorted order so "first loaded becomes
	// default" is deterministic when no default is named.
	names := make([]string, 0, len(cfg.Sketches))
	for name := range cfg.Sketches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.registry.Register(name, cfg.Sketches[name]); err != nil {
			return nil, err
		}
	}
	if cfg.DefaultSketch != "" {
		if err := s.registry.SetDefault(cfg.DefaultSketch); err != nil {
			return nil, err
		}
	}

	// Shard-fleet primitives: raw merge-able integer counts for the cluster
	// coordinator (internal/cluster).
	s.HandleFunc("POST /v1/shard/coverage", s.handleShardCoverage)
	s.HandleFunc("POST /v1/shard/marginal", s.handleShardMarginal)
	s.HandleFunc("POST /v1/shard/top", s.handleShardTop)
	s.HandleFunc("POST /v1/sketches/{sketch}/shard/coverage", s.handleShardCoverage)
	s.HandleFunc("POST /v1/sketches/{sketch}/shard/marginal", s.handleShardMarginal)
	s.HandleFunc("POST /v1/sketches/{sketch}/shard/top", s.handleShardTop)
	// Registry introspection and administration.
	s.HandleFunc("GET /v1/sketches", s.handleListSketches)
	s.HandleFunc("POST /v1/admin/sketches", s.handleAdminLoad)
	s.HandleFunc("DELETE /v1/admin/sketches/{sketch}", s.handleAdminUnload)
	// Async build service: submit, observe and cancel server-side sketch
	// builds whose results land in the registry.
	s.HandleFunc("POST /v1/admin/builds", s.handleBuildSubmit)
	s.HandleFunc("GET /v1/admin/builds", s.handleBuildList)
	s.HandleFunc("GET /v1/admin/builds/{build}", s.handleBuildGet)
	s.HandleFunc("DELETE /v1/admin/builds/{build}", s.handleBuildCancel)
	s.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Close releases the server's background resources: it cancels every live
// async build and stops the build runner pool. Loaded sketches are left to
// the registry's owner. ListenAndServe calls it on shutdown; standalone
// Handler users should call it themselves when done.
func (s *Server) Close() {
	s.closeOnce.Do(s.builds.shutdown)
}

// Registry returns the server's sketch registry, through which callers load,
// replace and unload sketches at runtime (imserve's -sketch-dir SIGHUP
// rescan drives this).
func (s *Server) Registry() *Registry { return s.registry }

// ListenAndServe runs the shared serve loop (Frontend.ListenAndServe) on
// addr until ctx is cancelled, then closes the server.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	defer s.Close()
	return s.Frontend.ListenAndServe(ctx, addr)
}

// acquire resolves a sketch name ("" = the default sketch) and takes a query
// reference on its entry; the caller must release() it when done. A sketch
// that is not loaded is a 404 *StatusError.
func (s *Server) acquire(name string) (*sketchEntry, error) {
	if e, ok := s.registry.acquire(name); ok {
		return e, nil
	}
	if name == "" {
		return nil, &StatusError{http.StatusNotFound, fmt.Sprintf("no default sketch loaded (default %q)", s.registry.DefaultName())}
	}
	return nil, &StatusError{http.StatusNotFound, fmt.Sprintf("sketch %q not loaded", name)}
}

// sketchBackend is the server's Resolver: the named registry entry answers
// the public queries.
func (s *Server) sketchBackend(name string) (Backend, func(), error) {
	e, err := s.acquire(name)
	if err != nil {
		return nil, nil, err
	}
	return e, e.release, nil
}

// entryFor resolves the request's sketch for the shard endpoints and takes a
// query reference on it; on success the caller must release() it when done.
// On failure a 404 has been written.
func (s *Server) entryFor(w http.ResponseWriter, r *http.Request) (*sketchEntry, bool) {
	e, err := s.acquire(r.PathValue("sketch"))
	if err != nil {
		writeStatusError(w, err)
		return nil, false
	}
	return e, true
}

// sketchInfo is the per-sketch metadata reported by GET /v1/sketches (and,
// for the default sketch, flattened into /healthz).
type sketchInfo struct {
	Name      string  `json:"name"`
	Default   bool    `json:"default"`
	Vertices  int     `json:"vertices"`
	RRSets    int     `json:"rr_sets"`
	Model     string  `json:"model"`
	BuildSeed uint64  `json:"build_seed"`
	Kernel    string  `json:"kernel"`
	CI99      float64 `json:"ci99"`
	// Shard lineage, present only for sketches produced by imsketch -split:
	// which slice of which fleet this is (the index pointer distinguishes
	// shard 0 from "not sharded").
	ShardIndex       *int    `json:"shard_index,omitempty"`
	ShardCount       int     `json:"shard_count,omitempty"`
	TotalSets        int     `json:"total_sets,omitempty"`
	Source           string  `json:"source,omitempty"`
	Mapped           bool    `json:"mapped"`
	LoadedAgeSeconds float64 `json:"loaded_age_seconds"`
	CacheHits        uint64  `json:"cache_hits"`
	CacheMisses      uint64  `json:"cache_misses"`
	CacheSize        int     `json:"cache_size"`
	SeedComputations uint64  `json:"seed_computations"`
}

func (s *Server) infoFor(e *sketchEntry, defaultName string) sketchInfo {
	hits, misses, size := e.cache.Stats()
	info := sketchInfo{
		Name:             e.name,
		Default:          e.name == defaultName,
		Vertices:         e.oracle.NumVertices(),
		RRSets:           e.oracle.NumSets(),
		Model:            e.oracle.Model().String(),
		BuildSeed:        e.oracle.BuildSeed(),
		Kernel:           string(e.oracle.KernelResolved()),
		CI99:             e.oracle.ConfidenceHalfWidth(2.576),
		Source:           e.source,
		Mapped:           e.mapped != nil && e.mapped.ZeroCopy(),
		LoadedAgeSeconds: time.Since(e.loadedAt).Seconds(),
		CacheHits:        hits,
		CacheMisses:      misses,
		CacheSize:        size,
		SeedComputations: e.seedRuns.Load(),
	}
	if l := e.oracle.ShardLineage(); l.Sharded() {
		idx := l.Index
		info.ShardIndex = &idx
		info.ShardCount = l.Count
		info.TotalSets = l.TotalSets
	}
	return info
}

type listSketchesResponse struct {
	Default  string       `json:"default"`
	Sketches []sketchInfo `json:"sketches"`
}

func (s *Server) handleListSketches(w http.ResponseWriter, r *http.Request) {
	entries, defaultName := s.registry.snapshot()
	resp := listSketchesResponse{Default: defaultName, Sketches: make([]sketchInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Sketches = append(resp.Sketches, s.infoFor(e, defaultName))
	}
	writeJSON(w, http.StatusOK, resp)
}

// adminLoadRequest asks the server to load the sketch file at Path under
// Name; Replace permits overwriting a name already loaded (without it a
// duplicate is a 409), and Default additionally points the legacy unnamed
// routes at it.
type adminLoadRequest struct {
	Name    string `json:"name"`
	Path    string `json:"path"`
	Replace bool   `json:"replace"`
	Default bool   `json:"default"`
}

func (s *Server) handleAdminLoad(w http.ResponseWriter, r *http.Request) {
	var req adminLoadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "path is required")
		return
	}
	if err := validateSketchName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admin loads are rare and serialized by the operator in practice; the
	// check-then-load pair is not atomic against a concurrent load of the
	// same name, which at worst replaces where it would have 409'd.
	if !req.Replace && s.registry.Contains(req.Name) {
		writeError(w, http.StatusConflict, "sketch %q already loaded (set replace to overwrite)", req.Name)
		return
	}
	if err := s.registry.LoadFile(req.Name, req.Path); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Default {
		if err := s.registry.SetDefault(req.Name); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	e, ok := s.registry.acquire(req.Name)
	if !ok {
		// The sketch was unloaded again between load and report; rare but
		// not an error worth failing the load over.
		writeJSON(w, http.StatusOK, errorResponse{})
		return
	}
	defer e.release()
	writeJSON(w, http.StatusOK, s.infoFor(e, s.registry.DefaultName()))
}

func (s *Server) handleAdminUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("sketch")
	if err := s.registry.Unload(name); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownSketch) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "unloaded", "name": name})
}

type healthzResponse struct {
	Status string `json:"status"`
	// The flat sketch fields describe the default sketch, preserving the
	// single-sketch healthz contract older clients (and imbench) rely on.
	Vertices  int     `json:"vertices"`
	RRSets    int     `json:"rr_sets"`
	Model     string  `json:"model"`
	BuildSeed uint64  `json:"build_seed"`
	CI99      float64 `json:"ci99"`
	// Shard lineage of the default sketch, present only when it is a shard
	// of a split fleet (see sketchInfo).
	ShardIndex    *int     `json:"shard_index,omitempty"`
	ShardCount    int      `json:"shard_count,omitempty"`
	TotalSets     int      `json:"total_sets,omitempty"`
	CacheHits     uint64   `json:"cache_hits"`
	CacheMisses   uint64   `json:"cache_misses"`
	CacheSize     int      `json:"cache_size"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	DefaultSketch string   `json:"default_sketch"`
	SketchNames   []string `json:"sketch_names"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		DefaultSketch: s.registry.DefaultName(),
		SketchNames:   s.registry.Names(),
	}
	if len(resp.SketchNames) == 0 {
		resp.Status = "no sketches loaded"
	}
	if e, ok := s.registry.acquire(""); ok {
		hits, misses, size := e.cache.Stats()
		resp.Vertices = e.oracle.NumVertices()
		resp.RRSets = e.oracle.NumSets()
		resp.Model = e.oracle.Model().String()
		resp.BuildSeed = e.oracle.BuildSeed()
		resp.CI99 = e.oracle.ConfidenceHalfWidth(2.576)
		if l := e.oracle.ShardLineage(); l.Sharded() {
			idx := l.Index
			resp.ShardIndex = &idx
			resp.ShardCount = l.Count
			resp.TotalSets = l.TotalSets
		}
		resp.CacheHits = hits
		resp.CacheMisses = misses
		resp.CacheSize = size
		e.release()
	}
	writeJSON(w, http.StatusOK, resp)
}
