package cluster

// Scatter-gather plumbing: fan a shard request out to every target over the
// pooled transport, verify from the identity echoes that the responses really
// assemble the fleet the coordinator fronts, and merge the integer counts.

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

// scatter posts body to path on every target concurrently, decodes each 200
// response into a T, and verifies from the identity echoes that the
// responses assemble the fleet.
func scatter[T interface{ Identity() server.ShardIdentity }](ctx context.Context, c *Coordinator, path string, body any) ([]T, fleetView, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fleetView{}, fmt.Errorf("cluster: encoding shard request: %w", err)
	}
	resps := make([]T, len(c.cfg.Targets))
	errs := make([]error, len(c.cfg.Targets))
	var wg sync.WaitGroup
	for i, target := range c.cfg.Targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.shardJSON(ctx, http.MethodPost, target, path, payload, &resps[i])
		}()
	}
	wg.Wait()
	ids := make([]server.ShardIdentity, len(resps))
	for i := range resps {
		if errs[i] != nil {
			return nil, fleetView{}, errs[i]
		}
		ids[i] = resps[i].Identity()
	}
	view, err := verifyFleet(c.cfg.Targets, ids)
	return resps, view, err
}

// scatterCoverage returns the fleet-wide coverage count of every canonical
// seed set. Shards reject exactly the sets reaching outside the vertex
// range, which the query handlers reject themselves; any other rejection is
// a shard failure, since that shard's count is missing from the sum.
func (c *Coordinator) scatterCoverage(ctx context.Context, sketch string, seedSets [][]int) ([]int64, fleetView, error) {
	resps, view, err := scatter[server.ShardCoverageResponse](ctx, c, shardPath(sketch, "coverage"),
		server.ShardCoverageRequest{SeedSets: seedSets})
	if err != nil {
		return nil, view, err
	}
	counts := make([]int64, len(seedSets))
	for i, resp := range resps {
		if len(resp.Counts) != len(seedSets) || len(resp.Errors) > len(seedSets) {
			return nil, view, &shardError{target: c.cfg.Targets[i],
				err: fmt.Errorf("returned %d counts and %d errors for %d seed sets", len(resp.Counts), len(resp.Errors), len(seedSets))}
		}
		for j, n := range resp.Counts {
			counts[j] += n
		}
		for j, msg := range resp.Errors {
			s := seedSets[j]
			outside := len(s) > 0 && (s[0] < 0 || s[len(s)-1] >= view.vertices)
			if msg != "" && !outside {
				return nil, view, &shardError{target: c.cfg.Targets[i],
					err: fmt.Errorf("rejected seed set %v: %s", s, msg)}
			}
		}
	}
	return counts, view, nil
}

// scatterMarginal returns the fleet-wide marginal gain of every candidate
// on top of seeds (every vertex in ascending id order when candidates is
// nil).
func (c *Coordinator) scatterMarginal(ctx context.Context, sketch string, seeds, candidates []int) ([]int64, fleetView, error) {
	resps, view, err := scatter[server.ShardMarginalResponse](ctx, c, shardPath(sketch, "marginal"),
		server.ShardMarginalRequest{Seeds: seeds, Candidates: candidates})
	if err != nil {
		return nil, view, err
	}
	want := len(candidates)
	if candidates == nil {
		want = view.vertices
	}
	gains := make([]int64, want)
	for i, resp := range resps {
		if len(resp.Gains) != want {
			return nil, view, &shardError{target: c.cfg.Targets[i],
				err: fmt.Errorf("returned %d gains for %d candidates", len(resp.Gains), want)}
		}
		for j, n := range resp.Gains {
			gains[j] += n
		}
	}
	return gains, view, nil
}
