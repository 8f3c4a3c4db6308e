// Command graphbuild pre-builds graph store files (.csrg, see
// internal/graphstore): pay the generator cost once, offline, and every
// later consumer — cobrawalkd's -graph-dir disk tier, sweep file:
// specs, graphinfo — loads the graph as an mmap in milliseconds instead
// of minutes of CPU.
//
// Three input modes:
//
//	graphbuild -graph rand-reg:1048576:8 -seed 7 -out g.csrg
//	    build any internal/cli graph spec and store it at -out
//
//	graphbuild -family rand-reg -size 1048576 -degree 8 -sweep-seed 7 -out runs/graphs
//	    build the exact graph a sweep with master seed 7 uses for these
//	    axes (same GraphSeed derivation, same generator stream) and
//	    store it under -out with the disk-tier file name, so a daemon
//	    started with -graph-dir runs/graphs disk-hits its first job
//
//	graphbuild -edges edges.txt -out g.csrg
//	    read a text edge list (the internal/graph format: "graph NAME" /
//	    "n N" header lines then one "u v" pair per line) through
//	    graph.Read, which collapses repeated edges in either orientation;
//	    a list with no "graph" line is named after its file
//
// -force overwrites an existing store file (default: keep it — store
// files are content-addressed by their name in -family mode, so an
// existing file is already the right graph). -json emits one summary
// object instead of text.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/cli"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "graphbuild:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("graphbuild", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		graphSpec = fs.String("graph", "", "graph specification (internal/cli grammar)")
		seed      = fs.Uint64("seed", 1, "generator seed for -graph random families")
		family    = fs.String("family", "", "sweep family name (with -size/-degree/-sweep-seed)")
		size      = fs.Int("size", 0, "sweep size axis value for -family")
		degree    = fs.Int("degree", 0, "sweep degree axis value for -family (degreed families)")
		sweepSeed = fs.Uint64("sweep-seed", 0, "sweep master seed the graph derives from (-family mode)")
		edges     = fs.String("edges", "", "text edge-list file to pack (internal/graph format)")
		outPath   = fs.String("out", "", "output store file, or directory in -family mode (required)")
		madvise   = fs.String("graph-madvise", "", "madvise hints for the post-write read-back verify: comma-separated willneed,hugepage, or off")
		force     = fs.Bool("force", false, "overwrite an existing store file")
		jsonOut   = fs.Bool("json", false, "emit one machine-readable JSON summary")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Read())
		return nil
	}
	if *outPath == "" {
		return errors.New("-out is required")
	}
	advice, err := graphstore.ParseAdvice(*madvise)
	if err != nil {
		return fmt.Errorf("-graph-madvise: %w", err)
	}
	modes := 0
	for _, set := range []bool{*graphSpec != "", *family != "", *edges != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return errors.New("pick exactly one input mode: -graph, -family or -edges")
	}

	var (
		g       *graph.Graph
		path    string
		started = time.Now()
	)
	switch {
	case *graphSpec != "":
		built, err := cli.BuildGraph(*graphSpec, rng.NewStream(*seed, 0x61))
		if err != nil {
			return err
		}
		g, path = built, *outPath
	case *family != "":
		if *size < 2 {
			return errors.New("-family needs -size >= 2")
		}
		built, key, err := sweep.BuildTopology(*family, *size, *degree, *sweepSeed)
		if err != nil {
			return err
		}
		// -out is the store directory here: the file name must be the one
		// the graphcache disk tier derives from the key, or the daemon
		// will never find it.
		if err := os.MkdirAll(*outPath, 0o755); err != nil {
			return err
		}
		g, path = built, filepath.Join(*outPath, graphcache.StoreFileName(key))
	case *edges != "":
		built, err := readEdgeList(*edges)
		if err != nil {
			return err
		}
		g, path = built, *outPath
	}
	buildTime := time.Since(started)

	if !*force {
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%s exists (use -force to overwrite)", path)
		}
	}
	started = time.Now()
	if err := graphstore.Write(path, g); err != nil {
		return err
	}
	writeTime := time.Since(started)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	// Read-back verify: mmap the file just written (with the requested
	// madvise hints) and confirm it describes the graph we built. The
	// load time is the number consumers of this store file will pay, so
	// it is the one worth reporting against different -graph-madvise
	// settings.
	started = time.Now()
	check, err := graphstore.MmapAdvise(path, advice)
	if err != nil {
		return fmt.Errorf("read-back verify: %w", err)
	}
	loadTime := time.Since(started)
	if check.N() != g.N() || check.M() != g.M() {
		return fmt.Errorf("read-back verify: store holds n=%d m=%d, built n=%d m=%d",
			check.N(), check.M(), g.N(), g.M())
	}

	if *jsonOut {
		blob, err := json.Marshal(map[string]any{
			"store":         path,
			"graph":         g.Name(),
			"n":             g.N(),
			"m":             g.M(),
			"bytes":         fi.Size(),
			"build_seconds": buildTime.Seconds(),
			"write_seconds": writeTime.Seconds(),
			"load_seconds":  loadTime.Seconds(),
			"madvise":       advice.String(),
		})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", blob)
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	fmt.Fprintf(out, "graph:  %s\n", g)
	fmt.Fprintf(out, "bytes:  %d\n", fi.Size())
	fmt.Fprintf(out, "build:  %s\n", buildTime.Round(time.Millisecond))
	fmt.Fprintf(out, "write:  %s\n", writeTime.Round(time.Millisecond))
	fmt.Fprintf(out, "load:   %s (madvise %s)\n", loadTime.Round(time.Millisecond), advice)
	return nil
}

// readEdgeList reads a text edge list (the internal/graph format),
// naming the graph after the file when the list has no "graph" line.
func readEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Name() != "" {
		return g, nil
	}
	offsets, neighbors := g.CSR()
	return graph.FromCSRTrusted(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), offsets, neighbors)
}
