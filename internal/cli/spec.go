// Package cli holds the plumbing shared by the command-line tools: a
// graph-specification mini-language so every binary accepts the same
// -graph flag, and output helpers.
//
// Grammar (all sizes decimal integers):
//
//	complete:N            complete graph K_N
//	cycle:N               cycle C_N
//	path:N                path P_N
//	star:N                star K_{1,N-1}
//	hypercube:D           hypercube Q_D (2^D vertices)
//	torus:S1xS2[x...]     torus with the given side lengths
//	grid:S1xS2[x...]      grid (no wrap-around)
//	rand-reg:N:R          random R-regular graph on N vertices (connected)
//	erdos-renyi:N:P       G(N, P) random graph
//	circulant:N:D1,D2,..  circulant with offsets D1, D2, ...
//	paley:Q               Paley graph (prime Q ≡ 1 mod 4)
//	margulis:M            Margulis expander on M² vertices
//	complete-bipartite:A:B
//	ring-of-cliques:K:C
//	barbell:C:P
//	petersen | prism      named graphs
//	file:PATH             mmap a graph store file (.csrg, see cmd/graphbuild)
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/rng"
)

// argKind is the syntax of one colon-separated argument.
type argKind int

const (
	num     argKind = iota // decimal integer
	prob                   // probability (float)
	sides                  // side lengths S1xS2x...
	offsets                // circulant offsets D1,D2,...
)

// arg is one parsed argument: n for num, p for prob, list for sides and
// offsets.
type arg struct {
	n    int
	p    float64
	list []int
}

// families is the grammar of the package doc, file: aside (BuildGraph
// cuts it off first): each family's argument kinds, and the generator
// call that consumes them once parsed. A new family is one entry here.
var families = map[string]struct {
	args  []argKind
	build func(a []arg, r *rng.Rand) (*graph.Graph, error)
}{
	"complete":           {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Complete(a[0].n) }},
	"cycle":              {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Cycle(a[0].n) }},
	"path":               {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Path(a[0].n) }},
	"star":               {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Star(a[0].n) }},
	"hypercube":          {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Hypercube(a[0].n) }},
	"torus":              {[]argKind{sides}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Torus(a[0].list...) }},
	"grid":               {[]argKind{sides}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Grid(a[0].list...) }},
	"circulant":          {[]argKind{num, offsets}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Circulant(a[0].n, a[1].list) }},
	"paley":              {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Paley(a[0].n) }},
	"margulis":           {[]argKind{num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Margulis(a[0].n) }},
	"complete-bipartite": {[]argKind{num, num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.CompleteBipartite(a[0].n, a[1].n) }},
	"ring-of-cliques":    {[]argKind{num, num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.RingOfCliques(a[0].n, a[1].n) }},
	"barbell":            {[]argKind{num, num}, func(a []arg, _ *rng.Rand) (*graph.Graph, error) { return graph.Barbell(a[0].n, a[1].n) }},
	"petersen":           {nil, func([]arg, *rng.Rand) (*graph.Graph, error) { return graph.Petersen() }},
	"prism":              {nil, func([]arg, *rng.Rand) (*graph.Graph, error) { return graph.PrismGraph() }},
	"erdos-renyi":        {[]argKind{num, prob}, func(a []arg, r *rng.Rand) (*graph.Graph, error) { return graph.ErdosRenyi(a[0].n, a[1].p, r) }},
	"rand-reg": {[]argKind{num, num}, func(a []arg, r *rng.Rand) (*graph.Graph, error) {
		return graph.RandomRegularConnected(a[0].n, a[1].n, r)
	}},
}

// BuildGraph parses a graph specification and constructs the graph.
// Random families draw from the provided generator.
func BuildGraph(spec string, r *rng.Rand) (*graph.Graph, error) {
	// file: is cut before the colon split — the path may itself contain
	// colons, and it takes no further arguments.
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		if path == "" {
			return nil, fmt.Errorf("cli: file: needs a store file path")
		}
		return graphstore.Mmap(path)
	}
	parts := strings.Split(spec, ":")
	name, fields := parts[0], parts[1:]
	fam, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("cli: unknown graph family %q (see package cli docs for the grammar)", name)
	}
	if len(fields) != len(fam.args) {
		return nil, fmt.Errorf("cli: %s takes %d argument(s), got %d", name, len(fam.args), len(fields))
	}
	args := make([]arg, len(fields))
	for i, s := range fields {
		var err error
		if args[i], err = parseArg(name, i, fam.args[i], s); err != nil {
			return nil, err
		}
	}
	return fam.build(args, r)
}

// parseArg parses s, argument i of family name, as the given kind.
func parseArg(name string, i int, kind argKind, s string) (a arg, err error) {
	switch kind {
	case num:
		if a.n, err = strconv.Atoi(s); err != nil {
			return a, fmt.Errorf("cli: %s argument %d: %w", name, i+1, err)
		}
	case prob:
		if a.p, err = strconv.ParseFloat(s, 64); err != nil {
			return a, fmt.Errorf("cli: bad probability %q: %w", s, err)
		}
	default:
		sep, item := "x", "side"
		if kind == offsets {
			sep, item = ",", "offset"
		}
		for _, e := range strings.Split(s, sep) {
			v, err := strconv.Atoi(e)
			if err != nil {
				return a, fmt.Errorf("cli: bad %s %q: %w", item, e, err)
			}
			a.list = append(a.list, v)
		}
	}
	return a, nil
}
