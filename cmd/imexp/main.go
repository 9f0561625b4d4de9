// Command imexp regenerates the tables and figures of the paper's evaluation
// section.
//
// Usage:
//
//	imexp -list
//	imexp -exp table5 [-preset unit|small|paper] [-seed N] [-workers W]
//	imexp -all [-preset small]
//
// Each experiment prints the same rows or series the paper reports; the
// preset controls the number of trials, the sample-number sweep and the
// oracle size (see DESIGN.md and EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"imdist/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "imexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("imexp", flag.ContinueOnError)
	var (
		expID   = fs.String("exp", "", "experiment id to run (see -list)")
		preset  = fs.String("preset", string(experiment.Small), "scale preset: unit, small or paper")
		seed    = fs.Uint64("seed", 0, "master seed override (0 keeps the default)")
		workers = fs.Int("workers", 1, "goroutines the trials fan out over: 1 = one at a time, >1 = that many, -1 = all CPUs; output is the same at every value")
		list    = fs.Bool("list", false, "list available experiments and exit")
		all     = fs.Bool("all", false, "run every experiment in paper order")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintf(out, "%-12s %-10s %s\n", "id", "artefact", "title")
		for _, e := range experiment.Registry() {
			fmt.Fprintf(out, "%-12s %-10s %s\n", e.ID, e.Artefact, e.Title)
		}
		return nil
	}
	env, err := experiment.NewEnv(experiment.Preset(*preset))
	if err != nil {
		return err
	}
	if *seed != 0 {
		env.MasterSeed = *seed
	}
	env.Workers = *workers
	if *all {
		for _, e := range experiment.Registry() {
			if err := experiment.Run(out, e.ID, env); err != nil {
				return fmt.Errorf("experiment %s: %w", e.ID, err)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	if *expID == "" {
		return fmt.Errorf("no experiment selected; use -exp <id>, -all or -list")
	}
	return experiment.Run(out, *expID, env)
}
