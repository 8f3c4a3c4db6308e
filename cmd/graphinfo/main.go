// Command graphinfo builds a graph from a specification and prints its
// structural and spectral report: size, degree, connectivity,
// bipartiteness, λ₂, λ_n, λ_max, spectral gap, the paper's time scale
// T = log(n)/(1-λ)³, mixing-time and Cheeger bounds.
//
// Usage:
//
//	graphinfo -graph rand-reg:4096:8
//	graphinfo -graph petersen -spectrum
//	graphinfo -graph rand-reg:1024:8 -json
//	graphinfo -graph torus:32x32 -write /tmp/torus.edges
//	graphinfo runs/graphs/rand-reg-n1024-d8-s7.csrg
//	graphinfo -json runs/graphs/rand-reg-n1024-d8-s7.csrg
//
// A positional .csrg argument (or -graph ending in .csrg) switches to
// store-header mode: the file's metadata — name, n, m, degrees, format
// version — prints from the O(1) header read alone, without loading the
// adjacency arrays; a 10⁸-vertex store answers instantly. Use
// -graph file:PATH to fully load a store file for spectral analysis.
//
// -json emits one machine-readable JSON object instead of text, matching
// the other simulation commands.
//
// A graph with an isolated vertex has no random-walk transition matrix.
// Its structural report still prints, and the spectral lines give way to
// one line naming the vertex (under -json: null spectral fields and a
// spectral_error string); -spectrum then prints nothing more.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"cobrawalk/internal/buildinfo"
	"cobrawalk/internal/cli"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/spectral"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	var (
		graphSpec = fs.String("graph", "petersen", "graph specification (see internal/cli)")
		seed      = fs.Uint64("seed", 1, "seed for random families")
		spectrum  = fs.Bool("spectrum", false, "print the full spectrum (dense solver, small graphs)")
		writePath = fs.String("write", "", "write the graph in edge-list format to this file")
		jsonOut   = fs.Bool("json", false, "emit one machine-readable JSON object")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, buildinfo.Read())
		return nil
	}
	spec := *graphSpec
	if fs.NArg() > 0 {
		spec = fs.Arg(0)
	}
	if strings.HasSuffix(spec, graphstore.Ext) && !strings.HasPrefix(spec, "file:") {
		return storeHeaderInfo(w, spec, *jsonOut)
	}

	g, err := cli.BuildGraph(spec, rng.NewStream(*seed, 0x61))
	if err != nil {
		return err
	}
	// Analyze fills in the structural fields before its spectral solve,
	// so they print even when an isolated vertex leaves P undefined.
	rep, specErr := spectral.Analyze(g)
	if specErr != nil && !errors.Is(specErr, spectral.ErrIsolatedVertex) {
		return specErr
	}

	if *jsonOut {
		obj := map[string]any{
			"graph":      g.Name(),
			"n":          rep.N,
			"m":          rep.M,
			"degree":     rep.Degree,
			"min_degree": g.MinDegree(),
			"max_degree": g.MaxDegree(),
			"connected":  rep.Connected,
			"bipartite":  rep.Bipartite,
		}
		// Zero-gap graphs (any bipartite family has λ_max = 1) make the
		// theorem time scale and the mixing bound +Inf, which
		// encoding/json rejects — render non-finite values as null.
		for k, v := range map[string]float64{
			"lambda2":      rep.Lambda2,
			"lambda_n":     rep.LambdaN,
			"lambda_max":   rep.LambdaMax,
			"gap":          rep.Gap,
			"theorem_t":    rep.TheoremT(),
			"mixing_ub":    rep.MixingTimeUB,
			"cheeger_lo":   rep.CheegerLo,
			"cheeger_hi":   rep.CheegerHi,
			"gap_constant": gapConditionConstant(rep),
		} {
			obj[k] = finiteOrNil(v)
			if specErr != nil {
				obj[k] = nil
			}
		}
		if specErr != nil {
			obj["spectral_error"] = specErr.Error()
		} else if *spectrum {
			eig, err := spectral.DenseSpectrum(g)
			if err != nil {
				return fmt.Errorf("spectrum: %w", err)
			}
			obj["spectrum"] = eig
		}
		blob, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", blob); err != nil {
			return err
		}
		return writeEdgeList(w, g, *writePath, true)
	}

	fmt.Fprintf(w, "graph:      %s\n", g)
	fmt.Fprintf(w, "vertices:   %d\n", rep.N)
	fmt.Fprintf(w, "edges:      %d\n", rep.M)
	if rep.Degree >= 0 {
		fmt.Fprintf(w, "degree:     %d-regular\n", rep.Degree)
	} else {
		fmt.Fprintf(w, "degree:     irregular (min %d, max %d)\n", g.MinDegree(), g.MaxDegree())
	}
	fmt.Fprintf(w, "connected:  %v\n", rep.Connected)
	fmt.Fprintf(w, "bipartite:  %v\n", rep.Bipartite)
	if specErr != nil {
		fmt.Fprintf(w, "spectral:   undefined, %s\n", strings.TrimPrefix(specErr.Error(), "spectral: "))
		return writeEdgeList(w, g, *writePath, false)
	}
	fmt.Fprintf(w, "λ2:         %+.6f\n", rep.Lambda2)
	fmt.Fprintf(w, "λn:         %+.6f\n", rep.LambdaN)
	fmt.Fprintf(w, "λmax:       %.6f\n", rep.LambdaMax)
	fmt.Fprintf(w, "gap (1-λ):  %.6f\n", rep.Gap)
	fmt.Fprintf(w, "theorem T:  %.2f   (log n/(1-λ)³, Theorems 1-2 time scale)\n", rep.TheoremT())
	fmt.Fprintf(w, "mixing UB:  %.2f\n", rep.MixingTimeUB)
	fmt.Fprintf(w, "cheeger:    %.4f ≤ Φ ≤ %.4f\n", rep.CheegerLo, rep.CheegerHi)
	fmt.Fprintf(w, "gap cond:   1-λ ≥ √(log n/n)·c satisfied for c ≤ %.2f\n", gapConditionConstant(rep))

	if *spectrum {
		eig, err := spectral.DenseSpectrum(g)
		if err != nil {
			return fmt.Errorf("spectrum: %w", err)
		}
		fmt.Fprintf(w, "spectrum (%d eigenvalues):\n", len(eig))
		for i, l := range eig {
			fmt.Fprintf(w, "  λ%-4d %+.8f\n", i+1, l)
		}
	}
	return writeEdgeList(w, g, *writePath, false)
}

// storeHeaderInfo prints a graph store file's header metadata without
// loading the adjacency arrays — the O(1) inspection path for files too
// big to casually load.
func storeHeaderInfo(w io.Writer, path string, jsonOut bool) error {
	h, err := graphstore.ReadHeader(path)
	if err != nil {
		return err
	}
	if jsonOut {
		obj := map[string]any{
			"store":      path,
			"version":    h.Version,
			"graph":      h.Name,
			"n":          h.N,
			"m":          h.M(),
			"min_degree": h.MinDeg,
			"max_degree": h.MaxDeg,
		}
		if d, ok := h.Regular(); ok {
			obj["degree"] = d
		}
		blob, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", blob)
		return err
	}
	fmt.Fprintf(w, "store:      %s (format v%d)\n", path, h.Version)
	fmt.Fprintf(w, "graph:      %s\n", h.Name)
	fmt.Fprintf(w, "vertices:   %d\n", h.N)
	fmt.Fprintf(w, "edges:      %d\n", h.M())
	if d, ok := h.Regular(); ok {
		fmt.Fprintf(w, "degree:     %d-regular\n", d)
	} else {
		fmt.Fprintf(w, "degree:     irregular (min %d, max %d)\n", h.MinDeg, h.MaxDeg)
	}
	return nil
}

// writeEdgeList writes the graph in edge-list format when a path was
// given; quiet suppresses the confirmation line (-json keeps stdout one
// object).
func writeEdgeList(w io.Writer, g *graph.Graph, path string, quiet bool) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graph.Write(f, g); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(w, "wrote edge list to %s\n", path)
	}
	return nil
}

// finiteOrNil renders non-finite report fields as JSON null —
// encoding/json rejects NaN and ±Inf outright.
func finiteOrNil(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return x
}

// gapConditionConstant returns the largest constant c such that the
// paper's hypothesis 1-λ ≥ c·√(log n/n) holds for this graph.
func gapConditionConstant(rep spectral.Report) float64 {
	if rep.N < 2 {
		return 0
	}
	lo, hi := 0.0, 1e9
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if rep.SatisfiesGapCondition(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
