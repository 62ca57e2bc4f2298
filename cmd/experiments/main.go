// Command experiments regenerates the data behind every figure of the
// paper's evaluation chapters.
//
//	experiments -all                 # every figure (slow at full scale)
//	experiments -group ch3-churn     # figures 3.25–3.28
//	experiments -fig 5.9             # the group containing figure 5.9
//	experiments -reps 3 -timescale 0.3 -ratescale 0.5   # quick pass
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vdm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		group     = fs.String("group", "", "experiment group to run (see -list)")
		fig       = fs.String("fig", "", "figure id, e.g. 3.25 — runs its whole group")
		all       = fs.Bool("all", false, "run every experiment group")
		list      = fs.Bool("list", false, "list experiment groups and exit")
		seed      = fs.Int64("seed", 1, "master seed")
		reps      = fs.Int("reps", 5, "repetitions per (x value, variant) cell")
		timeScale = fs.Float64("timescale", 1, "session duration multiplier (1 = paper)")
		rateScale = fs.Float64("ratescale", 1, "data rate multiplier (1 = paper)")
		verbose   = fs.Bool("v", false, "print per-session progress to stderr")
		format    = fs.String("format", "text", "output format: text | json")
		jobs      = fs.Int("j", 0, "parallel workers for sessions (0 = all cores, 1 = serial); results are identical at any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, g := range experiments.Groups() {
			fmt.Fprintln(stdout, g)
		}
		return nil
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q (text | json)", *format)
	}
	var groups []string
	switch {
	case *all:
		groups = experiments.Groups()
	case *group != "":
		groups = []string{*group}
	case *fig != "":
		g, ok := experiments.GroupFor(*fig)
		if !ok {
			return fmt.Errorf("unknown -fig %q", *fig)
		}
		groups = []string{g}
	default:
		return fmt.Errorf("nothing to run: give -all, -group, -fig or -list")
	}

	opts := experiments.Options{
		Seed:      *seed,
		Reps:      *reps,
		TimeScale: *timeScale,
		RateScale: *rateScale,
		Jobs:      *jobs,
	}
	if *verbose {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var collected []*experiments.Table
	for _, g := range groups {
		tables, err := experiments.Run(g, opts)
		if err != nil {
			return fmt.Errorf("group %s: %w", g, err)
		}
		if *format == "json" {
			collected = append(collected, tables...)
			continue
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.Format())
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(collected)
	}
	return nil
}
