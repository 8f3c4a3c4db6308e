package spectral

import (
	"math"
	"sort"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/rng"
)

// TestDoubleCoverSpectrum: the transition spectrum of the bipartite double
// cover is the union of the base spectrum and its negation — a sharp
// cross-check of both the graph construction and the dense eigensolver,
// and the cleanest way to see why bipartite graphs sit at λ_max = 1.
func TestDoubleCoverSpectrum(t *testing.T) {
	bases := []*graph.Graph{
		mustG(t)(graph.Petersen()),
		mustG(t)(graph.Complete(7)),
		mustG(t)(graph.Cycle(5)),
	}
	for _, g := range bases {
		dc, err := graph.DoubleCover(g)
		if err != nil {
			t.Fatal(err)
		}
		base, err := DenseSpectrum(g)
		if err != nil {
			t.Fatal(err)
		}
		cover, err := DenseSpectrum(dc)
		if err != nil {
			t.Fatal(err)
		}
		assertExtremes(t, g, base)
		assertExtremes(t, dc, cover)
		want := make([]float64, 0, 2*len(base))
		for _, l := range base {
			want = append(want, l, -l)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(cover) != len(want) {
			t.Fatalf("%s: cover spectrum size %d, want %d", g.Name(), len(cover), len(want))
		}
		for i := range want {
			if math.Abs(cover[i]-want[i]) > 1e-8 {
				t.Fatalf("%s: cover eigenvalue %d = %.10f, want %.10f", g.Name(), i, cover[i], want[i])
			}
		}
	}
}

// TestRelabelSpectrumInvariance: eigenvalues are graph invariants.
func TestRelabelSpectrumInvariance(t *testing.T) {
	r := rng.New(9)
	g, err := graph.RandomRegularConnected(40, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	permInts := r.Perm(g.N())
	perm := make([]int32, g.N())
	for i, p := range permInts {
		perm[i] = int32(p)
	}
	h, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	eg, err := DenseSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	eh, err := DenseSpectrum(h)
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eg)
	assertExtremes(t, h, eh)
	for i := range eg {
		if math.Abs(eg[i]-eh[i]) > 1e-8 {
			t.Fatalf("relabel changed eigenvalue %d: %v vs %v", i, eg[i], eh[i])
		}
	}
}

// TestComplementSpectrumComplete: for an r-regular graph G on n vertices
// with adjacency eigenvalues r = µ1 ≥ µ2 ≥ ..., the complement has
// adjacency eigenvalues n-1-r and -1-µi (i ≥ 2). Check on the Petersen
// graph, whose complement is the Kneser graph K(5,2)'s complement, the
// triangular graph T(5): 6-regular with adjacency spectrum {6, 1⁵, -2⁴}...
// verified here directly from the identity.
func TestComplementSpectrumIdentity(t *testing.T) {
	g := mustG(t)(graph.Petersen())
	comp, err := graph.Complement(g)
	if err != nil {
		t.Fatal(err)
	}
	eigG, err := DenseSpectrum(g) // transition spectrum: adjacency / 3
	if err != nil {
		t.Fatal(err)
	}
	eigC, err := DenseSpectrum(comp) // transition spectrum: adjacency / 6
	if err != nil {
		t.Fatal(err)
	}
	assertExtremes(t, g, eigG)
	assertExtremes(t, comp, eigC)
	// Build expected complement spectrum from the identity.
	want := []float64{1} // top eigenvalue
	for _, l := range eigG[1:] {
		adj := 3 * l // adjacency eigenvalue of G
		want = append(want, (-1-adj)/6)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	for i := range want {
		if math.Abs(eigC[i]-want[i]) > 1e-9 {
			t.Fatalf("complement eigenvalue %d = %.10f, want %.10f", i, eigC[i], want[i])
		}
	}
}
