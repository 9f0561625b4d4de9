// Package cluster implements the scatter-gather coordinator of the
// distributed serving tier: one process that fronts a fleet of imserve shard
// servers, each holding one slice of a sketch split by imsketch -split, and
// serves the public /v1 query API with answers byte-identical to a single
// process serving the unsplit sketch.
//
// The coordinator adds no handlers of its own for that API: it serves
// internal/server's Frontend — the same handler set a single process runs —
// with a fleet backend (fleet.go) in place of a loaded sketch. The identity
// argument is the batch engine's merge algebra taken over the network: every
// shard primitive (/v1/shard/coverage, /v1/shard/marginal) returns exact
// integer RR-set counts, integers sum exactly in any order, and the shared
// handlers perform the one float division by the fleet-wide RR-set total —
// the same expression, on the same integers, as on the unsplit oracle.
// Greedy seed selection runs core.CELF, the loop behind
// core.Oracle.GreedySeeds, over summed per-shard marginal counts; top-k
// ranks the summed per-vertex counts with core.TopVertices. The gather work
// is proportional to the answer (counts and candidate gains), never to
// shards × RR sets.
//
// The coordinator holds no state besides its target list: every response
// carries the shard's identity (build identity + lineage), and the
// coordinator re-verifies fleet assembly on every gather — duplicated or
// missing shard indexes, mixed builds or splits, and wrong fleet sizes are
// rejected as 502s naming the offending target. Shards are therefore free to
// hot-reload through their own admin API at any time; an unreachable shard
// degrades the coordinator to 503s naming the missing target until it
// returns. No coordinator-side caching: the shard servers answer from their
// own caches and the merge is cheap, so a reloaded shard is visible
// immediately.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"imdist/internal/server"
)

const (
	// greedyBatch is how many stale CELF entries are re-evaluated per
	// scatter round: large enough to amortize the RPC, small enough that most
	// re-evaluations are not wasted on entries that stay buried in the heap.
	// The selection does not depend on it (see internal/core/marginal.go).
	greedyBatch = 128
	// DefaultMaxIdleConnsPerHost sizes the pooled transport's per-shard idle
	// connection pool. net/http's default of 2 would reopen connections on
	// every concurrent scatter.
	DefaultMaxIdleConnsPerHost = 32
)

// Config configures a Coordinator. Zero values select defaults; Targets is
// required.
type Config struct {
	// Targets are the base URLs of the shard servers, one per shard
	// (e.g. http://127.0.0.1:8081). Order is irrelevant: shards are matched
	// by the lineage they report, not by position.
	Targets []string
	// Sketch is the sketch name queried on the shard servers by the unnamed
	// routes ("" = each shard's default sketch). Named routes
	// (/v1/sketches/{name}/...) always forward their own name.
	Sketch string
	// Limits bound request sizes and the serve loop's timeouts exactly as
	// they do a single process (defaults as in internal/server).
	server.Limits
}

// Coordinator fronts a shard fleet. It is stateless beyond its configuration:
// safe for concurrent use, nothing to invalidate on shard reloads. Its
// Frontend carries the public query routes, answered by the fleet, and the
// serve loop.
type Coordinator struct {
	*server.Frontend
	cfg    Config
	client *http.Client
	start  time.Time
	// greedyBatch is the greedyBatch constant; tests vary it.
	greedyBatch int
}

// New validates cfg, fills in defaults and returns a ready Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("cluster: Config requires at least one shard target")
	}
	for i, t := range cfg.Targets {
		cfg.Targets[i] = strings.TrimRight(t, "/")
		if !strings.HasPrefix(cfg.Targets[i], "http://") && !strings.HasPrefix(cfg.Targets[i], "https://") {
			return nil, fmt.Errorf("cluster: shard target %q is not an http(s) URL", t)
		}
	}
	c := &Coordinator{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        DefaultMaxIdleConnsPerHost * len(cfg.Targets),
			MaxIdleConnsPerHost: DefaultMaxIdleConnsPerHost,
			IdleConnTimeout:     90 * time.Second,
		}},
		start:       time.Now(),
		greedyBatch: greedyBatch,
	}
	c.Frontend = server.NewFrontend(cfg.Limits, c.fleetFor)
	c.HandleFunc("GET /healthz", c.handleHealthz)
	return c, nil
}

// fleetFor is the coordinator's server.Resolver. Every name resolves to the
// fleet queried under it: the {sketch} path segment on named routes, else
// the configured fleet-wide name. A name the shards do not hold surfaces as
// their own 404, passed through by the first scatter.
func (c *Coordinator) fleetFor(sketch string) (server.Backend, func(), error) {
	if sketch == "" {
		sketch = c.cfg.Sketch
	}
	return &fleet{c: c, sketch: sketch}, nil, nil
}

// healthzTarget is one shard server's slice of the coordinator healthz
// report.
type healthzTarget struct {
	Target string `json:"target"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Lineage and size as the shard's healthz reports them (its default
	// sketch).
	ShardIndex *int `json:"shard_index,omitempty"`
	ShardCount int  `json:"shard_count,omitempty"`
	TotalSets  int  `json:"total_sets,omitempty"`
	Vertices   int  `json:"vertices,omitempty"`
	RRSets     int  `json:"rr_sets,omitempty"`
}

type healthzResponse struct {
	Status string `json:"status"`
	Mode   string `json:"mode"`
	Shards int    `json:"shards"`
	// Vertices and RRSets describe the assembled fleet (RRSets sums the
	// shards' slices), so load drivers can probe a coordinator exactly like
	// a single server.
	Vertices      int             `json:"vertices"`
	RRSets        int             `json:"rr_sets"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Targets       []healthzTarget `json:"targets"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{
		Status:        "ok",
		Mode:          "coordinator",
		Shards:        len(c.cfg.Targets),
		UptimeSeconds: time.Since(c.start).Seconds(),
		Targets:       make([]healthzTarget, len(c.cfg.Targets)),
	}
	var wg sync.WaitGroup
	for i, target := range c.cfg.Targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The shard's own healthz fields decode straight into its entry.
			var ht healthzTarget
			if err := c.shardJSON(r.Context(), http.MethodGet, target, "/healthz", nil, &ht); err != nil {
				ht = healthzTarget{Status: "unreachable", Error: err.Error()}
			}
			ht.Target = target
			resp.Targets[i] = ht
		}()
	}
	wg.Wait()
	for _, ht := range resp.Targets {
		if ht.Status != "ok" {
			resp.Status = "degraded"
		}
		if ht.Vertices > resp.Vertices {
			resp.Vertices = ht.Vertices
		}
		resp.RRSets += ht.RRSets
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
