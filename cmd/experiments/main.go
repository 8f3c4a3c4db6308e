// Command experiments runs the paper-reproduction experiment suite E1-E15
// (one experiment per quantitative claim; see DESIGN.md §3) and prints the
// tables recorded in EXPERIMENTS.md. Ensemble experiments stream trials
// into digests, most through sweep.Ensemble (the computation behind every
// sweep record), so -scale full runs in constant memory.
//
// Usage:
//
//	experiments -list
//	experiments -run E1,E4 -scale quick
//	experiments -scale full -seed 7        # run everything
//	experiments -run E2 -scale full -json  # NDJSON for machines
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/expt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		runIDs  = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		scale   = fs.String("scale", "quick", "smoke | quick | full")
		seed    = fs.Uint64("seed", 1, "master RNG seed")
		workers = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		format  = fs.String("format", "text", "table output: text | csv | json")
		jsonOut = fs.Bool("json", false, "shorthand for -format json")
		version = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.Read())
		return nil
	}

	if *list {
		for _, e := range expt.Registry() {
			fmt.Fprintf(w, "%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	sc, err := expt.ParseScale(*scale)
	if err != nil {
		return err
	}
	fm, err := expt.ParseFormat(*format)
	if err != nil {
		return err
	}
	if *jsonOut {
		fm = expt.FormatJSON
	}
	p := expt.Params{Scale: sc, Seed: *seed, Workers: *workers, Format: fm}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *runIDs == "" {
		return expt.RunAll(ctx, w, p)
	}
	for _, id := range strings.Split(*runIDs, ",") {
		id = strings.TrimSpace(id)
		e, err := expt.Lookup(id)
		if err != nil {
			return err
		}
		if err := expt.Announce(w, p, e); err != nil {
			return err
		}
		if err := e.Run(ctx, w, p); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
