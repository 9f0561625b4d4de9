package sketchio

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"imdist/internal/core"
	"imdist/internal/data"
	"imdist/internal/diffusion"
	"imdist/internal/gen"
	"imdist/internal/graph"
	"imdist/internal/rng"
	"imdist/internal/workload"
)

// TestSketchBytesGolden pins the encoded bytes of four sketches across
// commits: an RR sampler rewrite must draw the same sets from the same
// streams. The cases cover dense and sparse IC sets, mixed probabilities
// (trivalency 0.1/0.01/0.001) and LT, and each is built at two worker counts,
// which must agree. The digests change only when a change means to change
// every sketch built from a seed.
func TestSketchBytesGolden(t *testing.T) {
	const sets, buildSeed = 1 << 14, 11
	ba := func(n, m int) func(testing.TB) *graph.Graph {
		return func(t testing.TB) *graph.Graph {
			g, err := gen.BarabasiAlbert(n, m, rng.NewXoshiro(3))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name  string
		graph func(testing.TB) *graph.Graph
		prob  workload.Model
		model diffusion.Model
		want  string
	}{
		{"ba2k-uc0.1-IC", ba(2000, 8), workload.UC01, diffusion.IC, "f71652b9b6bb0f0e66706806f3626b17e07cb0ee8ccc8fac55a372e98724276f"},
		{"ba20k-iwc-IC", ba(20000, 4), workload.IWC, diffusion.IC, "a25f587e6a42fd8cc14841a994159400b83420f6d74dfd51afaae0808b0af840"},
		{"karate-tv-IC", func(testing.TB) *graph.Graph { return data.Karate() }, workload.Trivalency, diffusion.IC, "5ec133fe2aee18005f12ec5336dbf11d691b78839eb8999bd767701d7dd7dd87"},
		{"ba2k-iwc-LT", ba(2000, 8), workload.IWC, diffusion.LT, "05b8670bf12e0548e2b944865969900c89855ebe764a8e4ea50ac5eb6cf4bbbd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ig, err := workload.Assign(c.graph(t), c.prob, rng.NewXoshiro(5))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				b, err := core.NewSketchBuilder(ig, c.model, workers, buildSeed)
				if err != nil {
					t.Fatal(err)
				}
				appendSets(t, b, sets)
				o, err := b.Oracle()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(encodeOracle(t, o))
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("workers %d: sketch sha256 %s, want %s", workers, got, c.want)
				}
			}
		})
	}
}
