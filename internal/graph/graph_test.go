package graph

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
)

// must returns a checker that accepts any (graph, error) constructor result
// and fails the test on construction error or invariant violation. The
// curried form lets call sites expand multi-value returns directly:
// g := must(t)(Complete(6)).
func must(t *testing.T) func(*Graph, error) *Graph {
	return func(g *Graph, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatalf("graph construction failed: %v", err)
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("constructed graph invalid: %v", verr)
		}
		return g
	}
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("zero graph: N=%d M=%d, want 0,0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("zero graph invalid: %v", err)
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should be vacuously connected")
	}
	if r, err := g.Regularity(); err != nil || r != 0 {
		t.Fatalf("empty graph regularity = (%d, %v)", r, err)
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 1) // duplicate must collapse
	b.AddEdge(1, 0) // reversed duplicate must collapse
	g := must(t)(b.Build("square"))
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("square: N=%d M=%d, want 4,4", g.N(), g.M())
	}
	if !g.IsRegular() {
		t.Fatal("square should be 2-regular")
	}
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Fatal("diagonal edges should not exist")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-edge reported present")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("self-loop", func(t *testing.T) {
		b := NewBuilder(3, 1)
		b.AddEdge(1, 1)
		if _, err := b.Build("x"); err == nil {
			t.Fatal("want error for self-loop")
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		b := NewBuilder(3, 1)
		b.AddEdge(0, 5)
		if _, err := b.Build("x"); err == nil {
			t.Fatal("want error for out-of-range vertex")
		}
	})
	t.Run("negative-vertex", func(t *testing.T) {
		b := NewBuilder(3, 1)
		b.AddEdge(-1, 0)
		if _, err := b.Build("x"); err == nil {
			t.Fatal("want error for negative vertex")
		}
	})
	t.Run("negative-n", func(t *testing.T) {
		b := NewBuilder(-1, 0)
		if _, err := b.Build("x"); err == nil {
			t.Fatal("want error for negative n")
		}
	})
	t.Run("error-latches", func(t *testing.T) {
		b := NewBuilder(3, 2)
		b.AddEdge(1, 1) // bad
		b.AddEdge(0, 1) // good, but error already latched
		if _, err := b.Build("x"); err == nil {
			t.Fatal("latched error lost")
		}
	})
}

// referenceGraph packs pairs the obvious way: one neighbour set per vertex,
// each sorted into its CSR row, validated by FromCSR.
func referenceGraph(t *testing.T, name string, n int, pairs [][2]int32) *Graph {
	t.Helper()
	sets := make([]map[int32]bool, n)
	for v := range sets {
		sets[v] = map[int32]bool{}
	}
	for _, p := range pairs {
		sets[p[0]][p[1]] = true
		sets[p[1]][p[0]] = true
	}
	offsets := make([]int64, n+1)
	var neighbors []int32
	for v, set := range sets {
		neighbors = append(neighbors, slices.Sorted(maps.Keys(set))...)
		offsets[v+1] = int64(len(neighbors))
	}
	g, err := FromCSR(name, offsets, neighbors)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return g
}

// TestBuilderMatchesReference holds Build's count-and-scatter packing to
// referenceGraph: the CSR arrays must not depend on insertion order,
// orientation or repeats, and isolated and trailing vertices keep empty
// rows.
func TestBuilderMatchesReference(t *testing.T) {
	// The inputs come from pairStubs, not a generator, so that no case
	// depends on the packer under test.
	r := rng.NewStream(99, 2)
	stubPairs := func(n, d int) [][2]int32 {
		for {
			if pairs, ok := pairStubs(n, d, r); ok {
				return pairs
			}
		}
	}
	shuffled := stubPairs(600, 6)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	var reversed, repeated [][2]int32
	for _, e := range shuffled {
		flip := [2]int32{e[1], e[0]}
		reversed = append(reversed, flip)
		repeated = append(repeated, e, flip, e)
	}
	// Offsets 7 ≡ −1 and 4 ≡ −4 (mod 8) repeat every edge of offsets 1
	// and 4, in both orientations.
	var circulant [][2]int32
	for _, d := range []int32{1, 7, 4} {
		for v := range int32(8) {
			circulant = append(circulant, [2]int32{v, (v + d) % 8})
		}
	}

	cases := []struct {
		name  string
		n     int
		pairs [][2]int32
	}{
		{"shuffled", 600, shuffled},
		{"reversed", 600, reversed},
		{"repeated-both-orientations", 600, repeated},
		{"isolated-vertices", 12, [][2]int32{{7, 0}, {1, 2}, {5, 7}, {0, 1}}},
		{"n0", 0, nil},
		{"n1", 1, nil},
		{"circulant-coinciding-offsets", 8, circulant},
		{"pair-stubs-16384x8", 1 << 14, stubPairs(1<<14, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := FromEdges(tc.name, tc.n, tc.pairs)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGraph(t, tc.name, tc.n, tc.pairs)
			wo, wn := want.CSR()
			gotOff, gotNbr := got.CSR()
			if !slices.Equal(wo, gotOff) || !slices.Equal(wn, gotNbr) {
				t.Fatalf("Build packed %v, reference %v", got, want)
			}
		})
	}
}

func TestNeighborsSortedAndShared(t *testing.T) {
	g := must(t)(Complete(6))
	for v := int32(0); v < 6; v++ {
		adj := g.Neighbors(v)
		if len(adj) != 5 {
			t.Fatalf("K6 degree(%d) = %d", v, len(adj))
		}
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("adjacency of %d not sorted: %v", v, adj)
			}
		}
		for i := range adj {
			if g.Neighbor(v, i) != adj[i] {
				t.Fatalf("Neighbor(%d,%d) mismatch", v, i)
			}
		}
	}
}

func TestRegularity(t *testing.T) {
	g := must(t)(Star(5))
	if g.IsRegular() {
		t.Fatal("star reported regular")
	}
	if _, err := g.Regularity(); !errors.Is(err, ErrNotRegular) {
		t.Fatalf("Regularity error = %v, want ErrNotRegular", err)
	}
	if g.MinDegree() != 1 || g.MaxDegree() != 4 {
		t.Fatalf("star degrees: min=%d max=%d, want 1,4", g.MinDegree(), g.MaxDegree())
	}
}

func TestEdgesIterator(t *testing.T) {
	g := must(t)(Cycle(5))
	count := 0
	g.Edges(func(u, v int32) bool {
		if u >= v {
			t.Fatalf("Edges emitted non-canonical pair (%d,%d)", u, v)
		}
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("C5 edge count = %d, want 5", count)
	}
	// Early stop.
	count = 0
	g.Edges(func(u, v int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d edges, want 2", count)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := must(t)(Cycle(4))
	// Corrupt a neighbour id out of range.
	g2 := *g
	g2.neighbors = append([]int32(nil), g.neighbors...)
	g2.neighbors[0] = 99
	if err := g2.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range neighbour")
	}
	// Introduce asymmetry: replace one arc with another valid vertex.
	g3 := *g
	g3.neighbors = append([]int32(nil), g.neighbors...)
	// vertex 0's neighbours in C4 are {1,3}; change 3 -> 2 creates arc 0->2
	// without 2->0.
	for i := g3.offsets[0]; i < g3.offsets[1]; i++ {
		if g3.neighbors[i] == 3 {
			g3.neighbors[i] = 2
		}
	}
	if err := g3.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric edge")
	}
}

func TestStringSummary(t *testing.T) {
	g := must(t)(Cycle(7))
	s := g.String()
	for _, want := range []string{"cycle(n=7)", "n=7", "m=7", "2-regular"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	h := must(t)(Star(4))
	if !strings.Contains(h.String(), "irregular") {
		t.Fatalf("String() = %q should mention irregular", h.String())
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency("triangle", [][]int32{{1, 2}, {0, 2}, {0, 1}})
	g = must(t)(g, err)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("triangle: N=%d M=%d", g.N(), g.M())
	}
	// One-directional listing should symmetrise.
	h, err := FromAdjacency("tri2", [][]int32{{1, 2}, {2}, {}})
	h = must(t)(h, err)
	if h.M() != 3 {
		t.Fatalf("one-directional adjacency: M=%d, want 3", h.M())
	}
}

func TestTriangleCounts(t *testing.T) {
	cases := []struct {
		name string
		g    func() (*Graph, error)
		want int64
	}{
		{"K4", func() (*Graph, error) { return Complete(4) }, 4},
		{"K5", func() (*Graph, error) { return Complete(5) }, 10},
		{"C5", func() (*Graph, error) { return Cycle(5) }, 0},
		{"petersen", Petersen, 0},                                 // girth 5
		{"prism", PrismGraph, 2},                                  // two triangle faces
		{"Q3", func() (*Graph, error) { return Hypercube(3) }, 0}, // bipartite
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := must(t)(tc.g())
			if got := g.Triangles(); got != tc.want {
				t.Fatalf("Triangles() = %d, want %d", got, tc.want)
			}
		})
	}
}
