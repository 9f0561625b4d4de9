// Command imseed selects influence-maximization seeds on a graph using one of
// the three algorithmic approaches.
//
// Usage:
//
//	imseed -dataset Karate -prob uc0.1 -algo RIS -k 4 -samples 100000
//	imseed -graph edges.txt -prob iwc -algo Snapshot -k 10 -samples 200
//
// The tool prints the selected seed set, its estimated influence spread (via
// an RR-set oracle) and the traversal cost and sample size of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"imdist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "imseed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("imseed", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "path to a directed edge-list file")
		dataset   = fs.String("dataset", "", "named dataset (alternative to -graph); see imgraph -list")
		prob      = fs.String("prob", "iwc", "edge probability model: uc0.1, uc0.01, iwc, owc, tv")
		algo      = fs.String("algo", "RIS", "approach: Oneshot, Snapshot or RIS")
		k         = fs.Int("k", 4, "seed set size")
		samples   = fs.Int("samples", 10000, "sample number (beta/tau/theta)")
		oracleRR  = fs.Int("oracle", 200000, "RR sets backing the influence oracle")
		seed      = fs.Uint64("seed", 1, "random seed")
		lazy      = fs.Bool("lazy", false, "use CELF lazy greedy")
		workers   = fs.Int("workers", 1, "goroutines for RIS sampling and the oracle build: >1 = that many, -1 = all CPUs; output is the same at every value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		network *imdist.Network
		err     error
	)
	switch {
	case *graphPath != "":
		f, ferr := os.Open(*graphPath)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		network, err = imdist.LoadEdgeList(f)
	case *dataset != "":
		network, err = imdist.LoadDataset(*dataset)
	default:
		return fmt.Errorf("either -graph or -dataset is required")
	}
	if err != nil {
		return err
	}
	ig, err := network.AssignProbabilities(*prob, *seed)
	if err != nil {
		return err
	}
	res, err := ig.SelectSeeds(imdist.SeedOptions{
		Approach:     *algo,
		SeedSize:     *k,
		SampleNumber: *samples,
		Seed:         *seed,
		Lazy:         *lazy,
		Workers:      *workers,
	})
	if err != nil {
		return err
	}
	oracle, err := ig.NewInfluenceOracleWithOptions(imdist.OracleOptions{
		RRSets:  *oracleRR,
		Seed:    *seed + 1,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("network: n=%d m=%d (m~=%.1f, prob=%s)\n",
		ig.NumVertices(), ig.NumEdges(), ig.SumProbabilities(), *prob)
	fmt.Printf("algorithm: %s, sample number %d, k=%d\n", *algo, *samples, *k)
	fmt.Printf("seeds: %v\n", res.Seeds)
	influence, err := oracle.Influence(res.Seeds)
	if err != nil {
		return err
	}
	fmt.Printf("estimated influence: %.3f (+/- %.3f at 99%%)\n",
		influence, oracle.ConfidenceHalfWidth99())
	fmt.Printf("traversal cost: %d vertices, %d edges\n",
		res.Cost.VerticesExamined, res.Cost.EdgesExamined)
	fmt.Printf("sample size: %d vertices, %d edges\n",
		res.Cost.SampleVertices, res.Cost.SampleEdges)
	return nil
}
