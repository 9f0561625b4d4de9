package cluster

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"imdist/internal/core"
	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/rng"
	"imdist/internal/server"
	"imdist/internal/sketchio"
	"imdist/internal/workload"
)

// benchOracle is an IC sketch of a 10^4-vertex Barabási–Albert graph under
// weighted-cascade probabilities, two 64Ki-set blocks so it splits in two;
// built once per process.
var benchOracle = sync.OnceValues(func() (*core.Oracle, error) {
	g, err := gen.BarabasiAlbert(10_000, 4, rng.NewXoshiro(3))
	if err != nil {
		return nil, err
	}
	ig, err := workload.Assign(g, workload.IWC, nil)
	if err != nil {
		return nil, err
	}
	return core.NewOracleParallelSeeded(ig, diffusion.IC, 2*core.DefaultBatchShardSize, 2, 5)
})

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// benchFleet serves benchOracle split over two shard servers behind a
// coordinator, and returns the coordinator's URL and a counter of the
// response bytes the shards send it: the coordinator's gather.
func benchFleet(b *testing.B) (string, *atomic.Int64) {
	b.Helper()
	o, err := benchOracle()
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "ba.imsk")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := sketchio.Encode(f, o); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	paths, err := sketchio.SplitSketch(path, filepath.Join(dir, "fleet"), 2)
	if err != nil {
		b.Fatal(err)
	}
	gathered := new(atomic.Int64)
	var targets []string
	for _, p := range paths {
		m, err := sketchio.OpenMapped(p)
		if err != nil {
			b.Fatal(err)
		}
		s, err := server.New(server.Config{Oracle: m.Oracle()})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(countingWriter{w, gathered}, r)
		}))
		b.Cleanup(func() { ts.Close(); s.Close(); m.Close() })
		targets = append(targets, ts.URL)
	}
	return newCoordinator(b, Config{Targets: targets}).URL, gathered
}

// benchQuery times one public query against a fresh fleet and reports the
// bytes the coordinator gathered per query.
func benchQuery(b *testing.B, q struct{ name, method, path, body string }) {
	url, gathered := benchFleet(b)
	if status, raw := runQuery(b, url, q); status != http.StatusOK {
		b.Fatalf("%s: status %d: %s", q.name, status, raw)
	}
	gathered.Store(0)
	b.ResetTimer()
	for range b.N {
		runQuery(b, url, q)
	}
	b.StopTimer()
	b.ReportMetric(float64(gathered.Load())/float64(b.N), "gathered-B/op")
}

// BenchmarkCoordinatorSeeds measures fleet /v1/seeds at k=50.
func BenchmarkCoordinatorSeeds(b *testing.B) {
	benchQuery(b, struct{ name, method, path, body string }{"seeds", "POST", "/v1/seeds", `{"k":50}`})
}

// BenchmarkCoordinatorTop measures fleet /v1/top at k=10.
func BenchmarkCoordinatorTop(b *testing.B) {
	benchQuery(b, struct{ name, method, path, body string }{"top", "GET", "/v1/top?k=10", ""})
}
