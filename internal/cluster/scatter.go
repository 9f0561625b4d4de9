package cluster

// Scatter-gather plumbing: fan a shard request out to every target over the
// pooled transport, verify from the identity echoes that the responses really
// assemble the fleet the coordinator fronts, and merge the integer counts and
// the ranking pages.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"imdist/internal/core"
	"imdist/internal/graph"
	"imdist/internal/server"
)

// shardError is a scatter failure attributed to one shard target.
// unreachable marks transport failures and shard-side error statuses — the
// degraded-fleet case, served as 503 until the shard returns — while
// assembly errors (wrong lineage, mixed builds) stay 502s. status and
// shardMsg hold the shard's own HTTP status and error body when there was
// one, letting not-found answers pass through verbatim.
type shardError struct {
	target      string
	err         error
	unreachable bool
	status      int
	shardMsg    string
}

func (e *shardError) Error() string { return fmt.Sprintf("shard target %s: %v", e.target, e.err) }
func (e *shardError) Unwrap() error { return e.err }

// fleetView is the verified fleet-wide identity of a gather.
type fleetView struct {
	vertices  int
	model     string
	buildSeed uint64
	totalSets int
}

// scale is what the fleet's merged counts are divided by: the unsplit
// sketch's vertex count and RR-set total, so the shared handlers compute
// the unsplit oracle's floats from the summed integers.
func (f fleetView) scale() core.Scale {
	return core.Scale{Vertices: f.vertices, Sets: f.totalSets}
}

// shardPath builds the request path for a shard primitive against the named
// sketch ("" = the shard server's default sketch).
func shardPath(sketch, kind string) string {
	if sketch == "" {
		return "/v1/shard/" + kind
	}
	return "/v1/sketches/" + url.PathEscape(sketch) + "/shard/" + kind
}

// shardJSON sends a request (with a JSON payload, or none) to one shard
// target and decodes the 200 response into out. Any failure — transport,
// non-200 status, undecodable body — is a *shardError naming the target.
func (c *Coordinator) shardJSON(ctx context.Context, method, target, path string, payload []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, target+path, bytes.NewReader(payload))
	if err != nil {
		return &shardError{target: target, err: err, unreachable: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return &shardError{target: target, err: err, unreachable: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("status %d", resp.StatusCode)
		var er struct {
			Error string `json:"error"`
		}
		if b, rerr := io.ReadAll(io.LimitReader(resp.Body, 4096)); rerr == nil {
			if json.Unmarshal(b, &er) == nil && er.Error != "" {
				msg = fmt.Sprintf("status %d: %s", resp.StatusCode, er.Error)
			}
		}
		return &shardError{
			target: target, err: errors.New(msg), unreachable: true,
			status: resp.StatusCode, shardMsg: er.Error,
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &shardError{target: target, err: fmt.Errorf("decoding response: %w", err), unreachable: true}
	}
	return nil
}

// verifyFleet checks that the per-shard identity echoes assemble exactly the
// fleet this coordinator fronts: every response claims a fleet of
// len(targets) shards, the shard indexes are a permutation of 0..count-1
// (no duplicated or missing slices), every shard reports the same build
// identity, and the per-shard RR-set counts sum to the lineage total.
func verifyFleet(targets []string, ids []server.ShardIdentity) (fleetView, error) {
	want := len(targets)
	owner := make([]int, want) // 1-based target index by shard index
	setSum := 0
	for i, id := range ids {
		if id.ShardCount != want {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports a %d-shard fleet, coordinator has %d targets", id.ShardCount, want)}
		}
		if id.ShardIndex < 0 || id.ShardIndex >= want {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("reports shard index %d, out of range for a %d-shard fleet", id.ShardIndex, want)}
		}
		if prev := owner[id.ShardIndex]; prev != 0 {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("serves shard %d already served by %s", id.ShardIndex, targets[prev-1])}
		}
		owner[id.ShardIndex] = i + 1
		if id.Vertices != ids[0].Vertices || id.Model != ids[0].Model ||
			id.BuildSeed != ids[0].BuildSeed || id.TotalSets != ids[0].TotalSets {
			return fleetView{}, &shardError{target: targets[i],
				err: fmt.Errorf("sketch identity (%d vertices, %s, seed %d, %d total sets) does not match %s (%d vertices, %s, seed %d, %d total sets)",
					id.Vertices, id.Model, id.BuildSeed, id.TotalSets,
					targets[0], ids[0].Vertices, ids[0].Model, ids[0].BuildSeed, ids[0].TotalSets)}
		}
		setSum += id.NumSets
	}
	if setSum != ids[0].TotalSets {
		return fleetView{}, fmt.Errorf("fleet holds %d RR sets, lineage expects %d", setSum, ids[0].TotalSets)
	}
	return fleetView{
		vertices:  ids[0].Vertices,
		model:     ids[0].Model,
		buildSeed: ids[0].BuildSeed,
		totalSets: ids[0].TotalSets,
	}, nil
}

// query is one public query's conversation with the fleet. Its first
// scatter verifies that the shards assemble the fleet and pins each target's
// identity; every later scatter of the query must see the same identities,
// target for target, or the query fails naming the shard that changed (a
// hot reload mid-query would make the rounds' counts incomparable). A query
// lives for one request: the coordinator keeps nothing between requests.
type query struct {
	c      *Coordinator
	ctx    context.Context
	sketch string
	ids    []server.ShardIdentity
	view   fleetView
}

// scatter posts payloads[i] to the shard primitive kind on target i — or
// payloads[0] to every target, when it holds one payload — concurrently,
// decodes each 200 response into a T, and checks the identity echoes as
// described on query.
func scatter[T interface{ Identity() server.ShardIdentity }](q *query, kind string, payloads [][]byte) ([]T, error) {
	targets := q.c.cfg.Targets
	path := shardPath(q.sketch, kind)
	resps := make([]T, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = q.c.shardJSON(q.ctx, http.MethodPost, target, path, payloads[i%len(payloads)], &resps[i])
		}()
	}
	wg.Wait()
	ids := make([]server.ShardIdentity, len(resps))
	for i := range resps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ids[i] = resps[i].Identity()
	}
	if q.ids == nil {
		view, err := verifyFleet(targets, ids)
		if err != nil {
			return nil, err
		}
		q.ids, q.view = ids, view
		return resps, nil
	}
	for i, id := range ids {
		if id != q.ids[i] {
			return nil, &shardError{target: targets[i],
				err: errors.New("shard identity changed during the query (sketch reloaded mid-query); retry")}
		}
	}
	return resps, nil
}

// encode is the one payload a scatter sends to every target.
func encode(body any) ([][]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding shard request: %w", err)
	}
	return [][]byte{payload}, nil
}

// coverage returns the fleet-wide coverage count of every canonical seed
// set. Shards reject exactly the sets reaching outside the vertex range,
// which the query handlers reject themselves; any other rejection is a shard
// failure, since that shard's count is missing from the sum.
func (q *query) coverage(seedSets [][]int) ([]int64, error) {
	payloads, err := encode(server.ShardCoverageRequest{SeedSets: seedSets})
	if err != nil {
		return nil, err
	}
	resps, err := scatter[server.ShardCoverageResponse](q, "coverage", payloads)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(seedSets))
	for i, resp := range resps {
		if len(resp.Counts) != len(seedSets) || len(resp.Errors) > len(seedSets) {
			return nil, &shardError{target: q.c.cfg.Targets[i],
				err: fmt.Errorf("returned %d counts and %d errors for %d seed sets", len(resp.Counts), len(resp.Errors), len(seedSets))}
		}
		for j, n := range resp.Counts {
			counts[j] += n
		}
		for j, msg := range resp.Errors {
			s := seedSets[j]
			outside := len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= q.view.vertices)
			if msg != "" && !outside {
				return nil, &shardError{target: q.c.cfg.Targets[i],
					err: fmt.Errorf("rejected seed set %v: %s", s, msg)}
			}
		}
	}
	return counts, nil
}

// marginal is the fleet's core.MarginalFunc: each candidate's gain on top of
// seeds, summed over the shards.
func (q *query) marginal(seeds, candidates []graph.VertexID, gains []int64) error {
	payloads, err := encode(server.ShardMarginalRequest{Seeds: toInts(seeds), Candidates: toInts(candidates)})
	if err != nil {
		return err
	}
	resps, err := scatter[server.ShardMarginalResponse](q, "marginal", payloads)
	if err != nil {
		return err
	}
	clear(gains)
	for i, resp := range resps {
		if len(resp.Gains) != len(candidates) {
			return &shardError{target: q.c.cfg.Targets[i],
				err: fmt.Errorf("returned %d gains for %d candidates", len(resp.Gains), len(candidates))}
		}
		for j, n := range resp.Gains {
			gains[j] += n
		}
	}
	return nil
}

// pages returns a core.Pager over the shards' rankings: each call reads the
// next page of every shard's /v1/shard/top, after that shard's last entry,
// and merges the round with core.ShardRanking. The first page holds
// pageSize entries and each later one twice its predecessor (up to the
// vertex count), so reading a ranking to depth d takes O(log d) rounds and
// gathers at most about twice what the answer needs.
//
// Every page is checked before its bounds are trusted: entries must be
// [count, vertex] pairs with the vertex in [0, n) and the count at most the
// shard's num_sets, besides the ordering, cursor, length and completeness
// checks of ShardRanking.Merge. A page that fails is a 502 naming its shard.
func (q *query) pages() core.Pager {
	var ranking *core.ShardRanking
	limit := q.c.pageSize
	targets := q.c.cfg.Targets
	return func() (core.Page, error) {
		payloads := make([][]byte, len(targets))
		for i := range targets {
			req := server.ShardTopRequest{Limit: limit}
			if ranking != nil {
				if a := ranking.After(i); a != nil {
					req.After = &[2]int64{a.Count, int64(a.Vertex)}
				}
			}
			var err error
			if payloads[i], err = json.Marshal(req); err != nil {
				return core.Page{}, err
			}
		}
		resps, err := scatter[server.ShardTopResponse](q, "top", payloads)
		if err != nil {
			return core.Page{}, err
		}
		n := q.view.vertices
		if ranking == nil {
			ranking = core.NewShardRanking(n, len(targets))
		}
		pages := make([][]core.RankKey, len(resps))
		for i, resp := range resps {
			pages[i] = make([]core.RankKey, len(resp.Entries))
			for j, e := range resp.Entries {
				if e[1] < 0 || e[1] >= int64(n) || e[0] < 0 || e[0] > int64(resp.NumSets) {
					return core.Page{}, &shardError{target: targets[i],
						err: fmt.Errorf("page entry %d [%d,%d] is not a [count, vertex] pair with vertex in [0, %d) and count in [0, %d]", j, e[0], e[1], n, resp.NumSets)}
				}
				pages[i][j] = core.RankKey{Count: e[0], Vertex: graph.VertexID(e[1])}
			}
		}
		p, err := ranking.Merge(limit, pages)
		var pe *core.PageError
		if errors.As(err, &pe) {
			return core.Page{}, &shardError{target: targets[pe.Shard], err: pe}
		}
		limit = min(2*limit, n)
		return p, err
	}
}
