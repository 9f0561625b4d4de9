package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// Defaults for the async build service (Config zero values).
const (
	// DefaultBuildConcurrency is how many sketch builds run at once; queued
	// builds wait their turn. Builds are CPU-hungry (each already
	// parallelizes across workers), so one at a time is the safe default next
	// to live query traffic.
	DefaultBuildConcurrency = 1
	// DefaultMaxQueuedBuilds bounds the build queue; past it, submissions are
	// rejected with 503.
	DefaultMaxQueuedBuilds = 16
	// DefaultMaxBuildSets caps the max_sets a single build may request
	// (memory protection: RR sets live on the heap until the sketch is done).
	DefaultMaxBuildSets = 50_000_000
)

// BuildState is the lifecycle state of an async build job.
type BuildState string

// The build job states. Queued and running are live; the rest are terminal.
const (
	BuildQueued    BuildState = "queued"
	BuildRunning   BuildState = "running"
	BuildSucceeded BuildState = "succeeded"
	BuildFailed    BuildState = "failed"
	BuildCancelled BuildState = "cancelled"
)

func (s BuildState) terminal() bool {
	return s == BuildSucceeded || s == BuildFailed || s == BuildCancelled
}

// buildRequest is the body of POST /v1/admin/builds: build a sketch from a
// named dataset or an edge-list file, adaptively (target_eps) or to a fixed
// size, and load the result into the registry under Name when it completes.
type buildRequest struct {
	// Name is the registry name the finished sketch is loaded under.
	Name string `json:"name"`
	// Dataset is a named dataset ("Karate", ...); Graph is a path to a
	// directed edge-list file. Exactly one must be set.
	Dataset string `json:"dataset,omitempty"`
	Graph   string `json:"graph,omitempty"`
	// Prob is the edge-probability model (default "iwc").
	Prob string `json:"prob,omitempty"`
	// Model is the diffusion model, "IC" (default) or "LT".
	Model string `json:"model,omitempty"`
	// Seed pins the build's RR-set sequence (and doubles as the probability
	// assignment seed, as in imsketch).
	Seed uint64 `json:"seed"`
	// Workers is the build parallelism (0 = all CPUs, otherwise the
	// OracleOptions semantics).
	Workers int `json:"workers,omitempty"`
	// MaxSets caps the sketch size. Required.
	MaxSets int `json:"max_sets"`
	// TargetEps > 0 makes the build adaptive: it stops as soon as the
	// ErrorBound relative error reaches it (or at MaxSets). 0 builds straight
	// to MaxSets.
	TargetEps float64 `json:"target_eps,omitempty"`
	// Delta and K parameterize the error bound (defaults
	// core.DefaultBoundDelta / core.DefaultBoundK).
	Delta float64 `json:"delta,omitempty"`
	K     int     `json:"k,omitempty"`
	// Out, when set, writes the finished sketch to this path (atomic temp +
	// rename) and serves it memory-mapped from there; empty serves it from
	// the heap.
	Out string `json:"out,omitempty"`
	// Spill streams every generated batch to a spill file next to Out
	// (<out>.spill) and keeps no RR set on the heap: the member index is
	// built by decoding the sets back from the file. Requires Out. The
	// finished sketch is byte-identical to an in-memory build; the spill file
	// is removed once the member index is built, before the sketch is
	// written.
	Spill bool `json:"spill,omitempty"`
	// Replace permits overwriting a sketch already loaded under Name;
	// without it a duplicate name is rejected up front with 409.
	Replace bool `json:"replace,omitempty"`
	// Default additionally points the legacy unnamed routes at the sketch.
	Default bool `json:"default,omitempty"`
}

// buildJob is one tracked build. Mutable state is guarded by mu; the identity
// fields are immutable after submission.
type buildJob struct {
	id      string
	req     buildRequest
	created time.Time
	// ctx spans the job's whole life; cancel flips it (DELETE endpoint,
	// manager shutdown). A running build observes it between rounds.
	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      BuildState
	started    time.Time
	finished   time.Time
	sets       int
	bound      float64
	fraction   float64
	spillBytes int64
	errMsg     string
}

// buildStatus is the JSON view of a job (POST response and GET bodies).
type buildStatus struct {
	ID        string     `json:"id"`
	Name      string     `json:"name"`
	State     BuildState `json:"state"`
	Sets      int        `json:"sets"`
	MaxSets   int        `json:"max_sets"`
	TargetEps float64    `json:"target_eps,omitempty"`
	// Bound is the latest ErrorBound estimate (absent until first computed).
	Bound float64 `json:"bound,omitempty"`
	// Progress estimates completion in [0, 1].
	Progress float64 `json:"progress"`
	// SpillBytes is the spill file's current size (spill builds only).
	SpillBytes int64  `json:"spill_bytes,omitempty"`
	Error      string `json:"error,omitempty"`
	// CreatedSecondsAgo / RunSeconds situate the job in time without leaking
	// absolute clocks.
	CreatedSecondsAgo float64 `json:"created_seconds_ago"`
	RunSeconds        float64 `json:"run_seconds,omitempty"`
}

func (j *buildJob) status() buildStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := buildStatus{
		ID:                j.id,
		Name:              j.req.Name,
		State:             j.state,
		Sets:              j.sets,
		MaxSets:           j.req.MaxSets,
		TargetEps:         j.req.TargetEps,
		Progress:          j.fraction,
		SpillBytes:        j.spillBytes,
		Error:             j.errMsg,
		CreatedSecondsAgo: time.Since(j.created).Seconds(),
	}
	// JSON has no +Inf; leave the bound absent until it is a real number.
	if !math.IsInf(j.bound, 0) && !math.IsNaN(j.bound) && j.bound > 0 {
		st.Bound = j.bound
	}
	switch {
	case j.state == BuildRunning:
		st.RunSeconds = time.Since(j.started).Seconds()
	case j.state.terminal() && !j.started.IsZero():
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return st
}

// buildManager owns the build queue: a bounded channel drained by a fixed
// pool of runner goroutines, plus the job table served by the status
// endpoints. Jobs hand their finished sketches to the registry.
type buildManager struct {
	registry *Registry
	maxSets  int

	mu     sync.Mutex
	jobs   map[string]*buildJob
	order  []string // submission order, for stable listings
	nextID int

	queue chan *buildJob
	stop  context.CancelFunc
	done  sync.WaitGroup
}

func newBuildManager(reg *Registry, concurrency, queueCap, maxSets int) *buildManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &buildManager{
		registry: reg,
		maxSets:  maxSets,
		jobs:     make(map[string]*buildJob),
		queue:    make(chan *buildJob, queueCap),
		stop:     cancel,
	}
	m.done.Add(concurrency)
	for i := 0; i < concurrency; i++ {
		go func() {
			defer m.done.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case job := <-m.queue:
					m.run(ctx, job)
				}
			}
		}()
	}
	return m
}

// shutdown cancels every live job and stops the runner pool (server
// shutdown path). Queued jobs flip to cancelled; the running ones observe
// their context between build rounds.
func (m *buildManager) shutdown() {
	m.mu.Lock()
	for _, j := range m.jobs {
		j.cancel()
		j.mu.Lock()
		if j.state == BuildQueued {
			j.state = BuildCancelled
			j.finished = time.Now()
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	m.stop()
	m.done.Wait()
}

// validate normalizes req in place and reports the first problem as a
// user-facing message ("" when valid). statusConflict distinguishes 409s.
func (m *buildManager) validate(req *buildRequest) (msg string, status int) {
	if err := validateSketchName(req.Name); err != nil {
		return err.Error(), http.StatusBadRequest
	}
	if (req.Dataset == "") == (req.Graph == "") {
		return "exactly one of dataset or graph is required", http.StatusBadRequest
	}
	if req.Prob == "" {
		req.Prob = "iwc"
	}
	if _, err := workload.ParseModel(req.Prob); err != nil {
		return err.Error(), http.StatusBadRequest
	}
	if req.Model == "" {
		req.Model = "IC"
	}
	if _, err := diffusion.ParseModel(req.Model); err != nil {
		return err.Error(), http.StatusBadRequest
	}
	if req.MaxSets < 1 || req.MaxSets > m.maxSets {
		return fmt.Sprintf("max_sets must be in [1, %d], got %d", m.maxSets, req.MaxSets), http.StatusBadRequest
	}
	if req.TargetEps < 0 || req.Delta < 0 || req.Delta >= 1 {
		return "target_eps must be >= 0 and delta in [0, 1)", http.StatusBadRequest
	}
	if req.Spill && req.Out == "" {
		return "spill requires out (the spill file lives next to the sketch)", http.StatusBadRequest
	}
	if req.Workers == 0 {
		req.Workers = -1
	}
	if !req.Replace && m.registry.Contains(req.Name) {
		return fmt.Sprintf("sketch %q already loaded (set replace to overwrite)", req.Name), http.StatusConflict
	}
	return "", 0
}

// submit validates and enqueues a build. It returns the queued job, or a
// user-facing error message with its HTTP status.
func (m *buildManager) submit(req buildRequest) (*buildJob, string, int) {
	if msg, status := m.validate(&req); msg != "" {
		return nil, msg, status
	}
	job := &buildJob{
		req:     req,
		created: time.Now(),
		state:   BuildQueued,
	}
	// The job context is deliberately detached from the submitting request:
	// a build keeps running after the submitting client disconnects, and is
	// cancelled through its own handle instead — DELETE /v1/builds/{id}
	// (cancelJob), manager shutdown, or the pool context via the AfterFunc
	// wired in run().
	//imvet:allow ctxflow — job outlives the request by design; cancellation flows through job.cancel
	job.ctx, job.cancel = context.WithCancel(context.Background())
	m.mu.Lock()
	m.nextID++
	job.id = "build-" + strconv.Itoa(m.nextID)
	select {
	case m.queue <- job:
	default:
		m.mu.Unlock()
		job.cancel()
		return nil, fmt.Sprintf("build queue full (%d queued)", cap(m.queue)), http.StatusServiceUnavailable
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.pruneFinishedLocked()
	m.mu.Unlock()
	return job, "", 0
}

// maxFinishedBuilds bounds how many terminal jobs the manager keeps for
// status queries; beyond it the oldest finished jobs are forgotten, so a
// long-lived server with periodic rebuilds holds a bounded job table.
const maxFinishedBuilds = 64

func (j *buildJob) inTerminalState() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal()
}

// pruneFinishedLocked evicts the oldest terminal jobs past maxFinishedBuilds.
// Live (queued/running) jobs are never evicted. Caller holds m.mu.
func (m *buildManager) pruneFinishedLocked() {
	finished := 0
	for _, id := range m.order {
		if m.jobs[id].inTerminalState() {
			finished++
		}
	}
	if finished <= maxFinishedBuilds {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if finished > maxFinishedBuilds && j.inTerminalState() {
			delete(m.jobs, id)
			j.cancel()
			finished--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

func (m *buildManager) get(id string) (*buildJob, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *buildManager) list() []buildStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*buildJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]buildStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// cancelJob requests cancellation. Queued jobs terminate immediately; running
// jobs stop at their next build round. Terminal jobs report a conflict.
func (m *buildManager) cancelJob(j *buildJob) (buildStatus, bool) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return j.status(), false
	}
	if j.state == BuildQueued {
		j.state = BuildCancelled
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.cancel()
	return j.status(), true
}

// run executes one job start to finish. poolCtx cancels with the whole
// manager (server shutdown); the job's own context cancels just this build.
func (m *buildManager) run(poolCtx context.Context, job *buildJob) {
	job.mu.Lock()
	if job.state != BuildQueued { // cancelled while waiting
		job.mu.Unlock()
		return
	}
	job.state = BuildRunning
	job.started = time.Now()
	job.bound = math.Inf(1)
	job.mu.Unlock()

	// The build stops on either signal: this job's cancel, or the whole
	// manager shutting down.
	ctx, cancel := context.WithCancel(job.ctx)
	defer cancel()
	stop := context.AfterFunc(poolCtx, cancel)
	defer stop()
	err := m.executeBuild(ctx, job)

	// The job is terminal either way; release its context resources.
	defer job.cancel()
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	switch {
	case err == nil:
		job.state = BuildSucceeded
		job.fraction = 1
	case errors.Is(err, context.Canceled):
		job.state = BuildCancelled
	default:
		job.state = BuildFailed
		job.errMsg = err.Error()
	}
}

// executeBuild loads the graph, runs the (possibly adaptive) incremental
// build with progress mirrored into the job, and loads the finished sketch
// into the registry.
func (m *buildManager) executeBuild(ctx context.Context, job *buildJob) error {
	req := job.req
	ig, err := loadBuildGraph(req)
	if err != nil {
		return err
	}
	model, err := diffusion.ParseModel(req.Model)
	if err != nil {
		return err
	}
	target := core.BuildTarget{
		Eps:     req.TargetEps,
		Delta:   req.Delta,
		K:       req.K,
		MaxSets: req.MaxSets,
		Progress: func(p core.BuildProgress) error {
			job.mu.Lock()
			job.sets = p.Sets
			job.bound = p.Bound
			job.fraction = p.Fraction
			job.spillBytes = p.SpillBytes
			job.mu.Unlock()
			return nil
		},
	}
	oracle, err := buildOracle(ctx, req, ig, model, target)
	if err != nil {
		return err
	}
	// Re-check the replace guard at completion: the name may have been
	// loaded (admin endpoint, another build) while this build ran, and
	// Register/LoadFile would overwrite it unconditionally. The remaining
	// check-to-register window is milliseconds instead of the build's
	// minutes; an operator race inside it hot-replaces, as documented for
	// the admin load path.
	if !req.Replace && m.registry.Contains(req.Name) {
		return fmt.Errorf("sketch %q was loaded while the build ran; resubmit with replace to overwrite", req.Name)
	}
	if req.Out != "" {
		if err := sketchio.WriteFile(req.Out, oracle); err != nil {
			return err
		}
		if err := m.registry.LoadFile(req.Name, req.Out); err != nil {
			return err
		}
	} else if err := m.registry.Register(req.Name, oracle); err != nil {
		return err
	}
	if req.Default {
		if err := m.registry.SetDefault(req.Name); err != nil {
			return err
		}
	}
	return nil
}

// buildOracle runs the build a request describes and finalizes its oracle.
// A spill build's file lives next to the final sketch and is the build's
// storage; a previous run's file is not resumed (a submitted job is a fresh
// build), so it is cleared first. The oracle holds only its member index, so
// the file is closed and removed as soon as the index is built, before the
// sketch is written or served.
func buildOracle(ctx context.Context, req buildRequest, ig *graph.InfluenceGraph, model diffusion.Model, target core.BuildTarget) (*core.Oracle, error) {
	if !req.Spill {
		b, err := core.NewSketchBuilder(ig, model, req.Workers, req.Seed)
		if err != nil {
			return nil, err
		}
		if _, err := b.BuildToTarget(ctx, target); err != nil {
			return nil, err
		}
		return b.Oracle()
	}
	spillPath := req.Out + ".spill"
	if err := os.Remove(spillPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	// Mode 0: the store keeps no set in memory.
	b, store, _, err := sketchio.BuildSpill(ctx, spillPath, ig, model, req.Workers, req.Seed, 0, target)
	if store != nil {
		defer func() {
			_ = store.Close()
			os.Remove(spillPath)
		}()
	}
	if err != nil {
		return nil, err
	}
	return b.Oracle()
}

// loadBuildGraph materializes the influence graph a build request names.
func loadBuildGraph(req buildRequest) (*graph.InfluenceGraph, error) {
	var (
		g   *graph.Graph
		err error
	)
	if req.Dataset != "" {
		ds, perr := data.Parse(req.Dataset)
		if perr != nil {
			return nil, perr
		}
		g, err = data.Load(ds, data.DefaultOptions())
	} else {
		f, oerr := os.Open(req.Graph)
		if oerr != nil {
			return nil, oerr
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f)
	}
	if err != nil {
		return nil, err
	}
	prob, err := workload.ParseModel(req.Prob)
	if err != nil {
		return nil, err
	}
	return workload.Assign(g, prob, rng.NewXoshiro(req.Seed))
}

// The HTTP surface of the build service.

func (s *Server) handleBuildSubmit(w http.ResponseWriter, r *http.Request) {
	var req buildRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	job, msg, status := s.builds.submit(req)
	if msg != "" {
		writeError(w, status, "%s", msg)
		return
	}
	writeJSON(w, http.StatusAccepted, job.status())
}

type buildListResponse struct {
	Builds []buildStatus `json:"builds"`
}

func (s *Server) handleBuildList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, buildListResponse{Builds: s.builds.list()})
}

func (s *Server) handleBuildGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.builds.get(r.PathValue("build"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown build %q", r.PathValue("build"))
		return
	}
	writeJSON(w, http.StatusOK, job.status())
}

func (s *Server) handleBuildCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.builds.get(r.PathValue("build"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown build %q", r.PathValue("build"))
		return
	}
	st, cancelled := s.builds.cancelJob(job)
	if !cancelled {
		writeError(w, http.StatusConflict, "build %s already %s", job.id, st.State)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
