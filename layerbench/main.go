// Command layerbench is the repository's layered benchmark. Each workload
// runs the operator's and the client's whole path in one process: generate a
// graph, build its RR-set sketch in memory and again through the spill
// store, mmap-load it, serve single, batch and seeds traffic from an
// in-process server, then split it into two shards behind an in-process
// coordinator and replay the same traffic through the fleet.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash layerbench/run.sh --workload ic100k-uniform --seed 1 --seconds 10 --trace 0
//	bash layerbench/run.sh --workload all --seed 1
//	bash layerbench/run.sh compare BASE_DIR HEAD_DIR
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. A human-readable table goes to standard
// error. Every run also writes a result record (with the environment
// fingerprint) under --out, and a traced run writes its spans next to it.
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

// errGates reports a run whose correctness gates failed; its result is
// printed before the process exits non-zero.
var errGates = errors.New("correctness gates failed")

// output is the machine-readable last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of one run, written under --out.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Gates     []string          `json:"failed_gates,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func runMain(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload name, or all")
	seed := fset.Uint64("seed", 1, "workload seed: the graph, the sketch and every query stream derive from it")
	secs := fset.Int("seconds", nominalSeconds, "query-phase budget; phase sizes scale linearly with it")
	trace := fset.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := fset.String("out", filepath.Join(".bench_build", "results"), "directory for result records and traces")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	var todo []spec
	if *name == "all" {
		todo = specs
	} else if sp, ok := specByName(*name); ok {
		todo = []spec{sp}
	} else {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		return fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(names, ", "))
	}
	if err := checkCounts(runtime.NumCPU(), runtime.GOMAXPROCS(0)); err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	total := output{Correct: true, Metrics: map[string]metric{}}
	var last output
	for _, sp := range todo {
		rec, err := runOne(sp, *seed, *secs, *trace == 1, *out)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		printTable(os.Stderr, rec)
		last = output{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}
		if rec.Trace {
			last.Metrics = rec.Layers
		}
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, v := range last.Metrics {
			total.Metrics[sp.name+"/"+k] = v
		}
	}
	if len(todo) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return errGates
	}
	return nil
}

// checkCounts refuses a configuration with more threads or connections than
// the machine has CPUs: oversubscription is the noise this benchmark avoids.
func checkCounts(nproc, gomaxprocs int) error {
	limit := min(nproc, gomaxprocs)
	counts := []struct {
		what string
		n    int
	}{
		{"build workers and server batch workers", nproc},
		{"shard batch workers across the fleet", shardCount * shardBatchWorkers},
		{"closed-loop client connections", closedLoopConns},
		{"open-loop client connections", openLoopConns},
		{"parallel-efficiency workers", efficiencyWorkers},
	}
	for _, c := range counts {
		if c.n > limit {
			return fmt.Errorf("%s = %d exceeds nproc %d / GOMAXPROCS %d", c.what, c.n, nproc, gomaxprocs)
		}
	}
	return nil
}

func runOne(sp spec, seed uint64, secs int, traced bool, outDir string) (*record, error) {
	scratch := filepath.Join(".bench_build", "scratch", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{
		sp: sp, seed: seed, seconds: secs, traced: traced, nproc: runtime.NumCPU(), dir: scratch,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if traced {
		b.tr = newTracer()
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: sp.name, Seed: seed, Seconds: secs, Trace: traced,
		Env:     fingerprint(seed, scratch),
		Correct: len(b.gates) == 0, Attempted: b.attempted, Failed: b.failed, Gates: b.gates,
		Metrics: b.e2e,
	}
	stamp := fmt.Sprintf("%s-s%d-t%d-%d", sp.name, seed, map[bool]int{false: 0, true: 1}[traced], time.Now().UnixNano())
	if traced {
		rec.Layers = b.layer
		rec.TraceFile = filepath.Join(outDir, stamp+".trace.json")
		if err := b.tr.writeFile(rec.TraceFile); err != nil {
			return nil, err
		}
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(outDir, stamp+".json"), raw, 0o644)
}

func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d trace=%v correct=%v attempted=%d failed=%d\n", rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	for _, g := range rec.Gates {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", g)
	}
	m := rec.Metrics
	if rec.Trace {
		m = rec.Layers
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// env is the environment fingerprint recorded with every result.
type env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	ScratchFS  string `json:"scratch_fs"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(seed uint64, scratch string) env {
	return env{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		ScratchFS:  fsType(scratch),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit is the git commit checked out in the current directory, or "none"
// when it holds no .git (sourceHash identifies the code there). Naming the
// git directory keeps git from searching the parent directories.
func commit() string {
	out, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod file under root, in path
// order, skipping hidden and build directories.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
