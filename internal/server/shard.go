package server

import (
	"net/http"

	"imdist/internal/core"
	"imdist/internal/graph"
)

// Shard endpoints: the integer-count primitives a cluster coordinator
// scatter-gathers over a partitioned sketch fleet (internal/cluster). Unlike
// the public /v1 query endpoints, which answer in influence units, these
// return raw per-shard RR-set counts — pure merge-able integers. The single
// float division by the fleet-wide total happens once, at the coordinator,
// which is what keeps distributed answers byte-identical to a single process
// on the unsplit sketch.
//
//	POST /v1/shard/coverage  {"seed_sets":[[0,5],[3]]} -> {"counts":[..],"shard_index":..,...}
//	POST /v1/shard/marginal  {"seeds":[..],"candidates":[..]} -> {"gains":[..],...}
//	POST /v1/shard/top       {"limit":64,"after":[count,vertex]} -> {"entries":[[count,vertex],..],...}
//
// All three also exist as named routes (/v1/sketches/{name}/shard/...). Every
// response carries the sketch's shard identity so the coordinator can verify,
// per query, that the fleet is assembled from the shards it thinks it is; an
// unsharded sketch reports itself as shard 0 of a 1-shard fleet, making a
// plain single sketch a degenerate—but valid—fleet.

// ShardIdentity names the sketch a shard response was computed on: the build
// identity shared by every shard of a split, plus this shard's slice of the
// fleet.
type ShardIdentity struct {
	Vertices   int    `json:"vertices"`
	Model      string `json:"model"`
	BuildSeed  uint64 `json:"build_seed"`
	NumSets    int    `json:"num_sets"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
	TotalSets  int    `json:"total_sets"`
}

// Identity returns the identity itself, so the coordinator can read it from
// any response type that embeds a ShardIdentity.
func (id ShardIdentity) Identity() ShardIdentity { return id }

// shardIdentity describes o for a shard response, synthesizing the 1-shard
// fleet view for unsharded sketches.
func shardIdentity(o *core.Oracle) ShardIdentity {
	l := o.ShardLineage()
	if !l.Sharded() {
		l = core.ShardLineage{Index: 0, Count: 1, TotalSets: o.NumSets()}
	}
	return ShardIdentity{
		Vertices:   o.NumVertices(),
		Model:      o.Model().String(),
		BuildSeed:  o.BuildSeed(),
		NumSets:    o.NumSets(),
		ShardIndex: l.Index,
		ShardCount: l.Count,
		TotalSets:  l.TotalSets,
	}
}

// ShardCoverageRequest evaluates many seed sets against this shard's slice of
// the RR-set pool.
type ShardCoverageRequest struct {
	SeedSets [][]int `json:"seed_sets"`
}

// ShardCoverageResponse carries one exact coverage count per requested seed
// set. Errors, when present, is item-parallel ("" for valid items), so one
// bad seed set never fails the scatter.
type ShardCoverageResponse struct {
	ShardIdentity
	Counts []int64  `json:"counts"`
	Errors []string `json:"errors,omitempty"`
}

func (s *Server) handleShardCoverage(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req ShardCoverageRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.SeedSets) == 0 {
		writeError(w, http.StatusBadRequest, "seed_sets must be non-empty")
		return
	}
	if len(req.SeedSets) > s.limits.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, "too many seed sets: %d > %d", len(req.SeedSets), s.limits.MaxBatchQueries)
		return
	}
	// Invalid sets are evaluated as empty (count 0) and flagged in Errors.
	seedSets := make([][]graph.VertexID, len(req.SeedSets))
	msgs := make([]string, len(req.SeedSets))
	for i, seeds := range req.SeedSets {
		if msgs[i] = s.validateShardSeeds(e.oracle, seeds); msgs[i] == "" {
			seedSets[i] = CanonicalSeeds(seeds)
		}
	}
	counts, errs := e.oracle.BatchCoverage(seedSets, s.cfg.BatchWorkers)
	resp := ShardCoverageResponse{ShardIdentity: shardIdentity(e.oracle), Counts: counts}
	for i, err := range errs {
		if err != nil && msgs[i] == "" {
			// Unreachable after validateShardSeeds, but the oracle's own
			// validation is the final authority.
			msgs[i] = err.Error()
		}
		if msgs[i] != "" {
			resp.Errors = msgs
		}
	}
	s.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, resp)
}

// validateShardSeeds validates a shard coverage query's seed set as the
// public influence queries are validated, except that the empty seed set is
// accepted (coverage 0).
func (s *Server) validateShardSeeds(oracle *core.Oracle, seeds []int) string {
	if len(seeds) == 0 {
		return ""
	}
	if msg := s.limits.shapeError(seeds); msg != "" {
		return msg
	}
	return rangeError(seeds, oracle.NumVertices())
}

// ShardMarginalRequest asks for the marginal coverage gain of every candidate
// on top of seeds. Candidates is required; an empty list is an empty answer.
type ShardMarginalRequest struct {
	Seeds      []int `json:"seeds"`
	Candidates []int `json:"candidates"`
}

// ShardMarginalResponse carries one exact marginal count per candidate.
type ShardMarginalResponse struct {
	ShardIdentity
	Gains []int64 `json:"gains"`
}

// handleShardMarginal serves the greedy primitive. Its bounds are the ones
// that govern greedy, not the public per-query seed limit: a coordinator
// asks with fewer than k <= MaxK seeds and at most one candidate per vertex.
func (s *Server) handleShardMarginal(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req ShardMarginalRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	n := e.oracle.NumVertices()
	if len(req.Seeds) > s.limits.MaxK {
		writeError(w, http.StatusBadRequest, "seeds: too many seeds: %d > %d", len(req.Seeds), s.limits.MaxK)
		return
	}
	if msg := rangeError(req.Seeds, n); msg != "" {
		writeError(w, http.StatusBadRequest, "seeds: %s", msg)
		return
	}
	if req.Candidates == nil {
		writeError(w, http.StatusBadRequest, "candidates must be a list of vertices")
		return
	}
	if len(req.Candidates) > n {
		writeError(w, http.StatusBadRequest, "candidates: too many candidates: %d > %d vertices", len(req.Candidates), n)
		return
	}
	if msg := rangeError(req.Candidates, n); msg != "" {
		writeError(w, http.StatusBadRequest, "candidates: %s", msg)
		return
	}
	// Candidates keep their request order: the coordinator matches gains
	// back by position.
	gains, err := e.oracle.MarginalCoverage(CanonicalSeeds(req.Seeds), toVertexIDs(req.Candidates))
	if err != nil {
		// Unreachable after the range checks above, but the oracle's own
		// validation is the final authority.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, ShardMarginalResponse{
		ShardIdentity: shardIdentity(e.oracle),
		Gains:         gains,
	})
}

// ShardTopRequest asks for the next page of the shard's ranking by
// membership count (count desc, id asc, the order of core.TopVertices):
// up to Limit vertices strictly after the position After, a [count, vertex]
// pair, or from the top when After is absent. A limit above the vertex count
// asks for the rest of the ranking.
type ShardTopRequest struct {
	Limit int       `json:"limit"`
	After *[2]int64 `json:"after,omitempty"`
}

// ShardTopResponse carries the page as [count, vertex] pairs in ranking
// order. A page shorter than the limit ends the ranking.
type ShardTopResponse struct {
	ShardIdentity
	Entries [][2]int64 `json:"entries"`
}

func (s *Server) handleShardTop(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entryFor(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req ShardTopRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	n := e.oracle.NumVertices()
	if req.Limit < 1 {
		writeError(w, http.StatusBadRequest, "limit must be positive, got %d", req.Limit)
		return
	}
	var after *core.RankKey
	if a := req.After; a != nil {
		if a[0] < 0 || a[1] < 0 || a[1] >= int64(n) {
			writeError(w, http.StatusBadRequest, "after [%d,%d] is not a [count, vertex] pair with vertex in [0, %d)", a[0], a[1], n)
			return
		}
		after = &core.RankKey{Count: a[0], Vertex: graph.VertexID(a[1])}
	}
	page := e.oracle.RankPage(after, min(req.Limit, n))
	resp := ShardTopResponse{ShardIdentity: shardIdentity(e.oracle), Entries: make([][2]int64, len(page))}
	for i, k := range page {
		resp.Entries[i] = [2]int64{k.Count, int64(k.Vertex)}
	}
	s.extendWriteDeadline(w)
	writeJSON(w, http.StatusOK, resp)
}
