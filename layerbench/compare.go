package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two directories of untraced result records (base, then
// head) and prints, per workload and end-to-end metric, each side's median
// and quartiles and a verdict against the bounds in BENCHMARK.json. It fails
// when any metric regresses beyond its bound.
func compareMain(args []string, w io.Writer) error {
	fset := flag.NewFlagSet("layerbench compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 2 {
		return fmt.Errorf("usage: layerbench compare [--bench BENCHMARK.json] BASE_DIR HEAD_DIR")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	base, err := loadRecords(fset.Arg(0))
	if err != nil {
		return err
	}
	head, err := loadRecords(fset.Arg(1))
	if err != nil {
		return err
	}
	workloads := map[string]bool{}
	for wl := range base {
		workloads[wl] = true
	}
	for wl := range head {
		workloads[wl] = true
	}
	names := make([]string, 0, len(workloads))
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)

	regressions := 0
	fmt.Fprintf(w, "%-16s %-16s %-32s %-32s %s\n", "workload", "metric", "base q1/median/q3", "head q1/median/q3", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			bv, hv := base[wl][m.Name], head[wl][m.Name]
			if len(bv) == 0 || len(hv) == 0 {
				fmt.Fprintf(w, "%-16s %-16s missing (base %d runs, head %d runs)\n", wl, m.Name, len(bv), len(hv))
				continue
			}
			v := verdict(bv, hv, m.Better == "lower", m.Bound)
			if v == "REGRESSION" {
				regressions++
			}
			b1, b2, b3 := quartiles(bv)
			h1, h2, h3 := quartiles(hv)
			fmt.Fprintf(w, "%-16s %-16s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %s (n=%d/%d, %+.1f%%, bound %.0f%%)\n",
				wl, m.Name, b1, b2, b3, h1, h2, h3, v, len(bv), len(hv), 100*(h2/b2-1), 100*m.Bound)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

// verdict judges head against base: a median worse by more than bound is a
// regression; when base's own quartile spread exceeds the bound the result
// is unresolved, unless every head run beats every base run.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	sign := 1.0
	if lowerBetter {
		sign = -1
	}
	b1, b2, b3 := quartiles(base)
	_, h2, _ := quartiles(head)
	change := sign * (h2/b2 - 1) // positive = better
	switch {
	case change < -bound:
		return "REGRESSION"
	case allBetter(base, head, sign):
		return "better"
	case (b3-b1)/math.Abs(b2) > bound:
		return "unresolved"
	default:
		return "ok"
	}
}

func allBetter(base, head []float64, sign float64) bool {
	worstHead, bestBase := math.Inf(1), math.Inf(-1)
	for _, h := range head {
		worstHead = math.Min(worstHead, sign*h)
	}
	for _, b := range base {
		bestBase = math.Max(bestBase, sign*b)
	}
	return worstHead > bestBase
}

// loadRecords reads every untraced result record in dir, keyed by workload
// and metric.
func loadRecords(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace || !rec.Correct {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result records", dir)
	}
	return out, nil
}
