package spectral

import (
	"math"
	"testing"

	"cobrawalk/internal/graph"
)

// kernelTol is the agreement demanded of the dense path against closed
// forms: roundoff of a backward-stable O(n³) solve on a unit-norm matrix.
const kernelTol = 1e-12

// torusSpectrum is the transition spectrum of the torus a×b:
// (cos 2πj/a + cos 2πk/b)/2 for every j < a, k < b.
func torusSpectrum(a, b int) []float64 {
	var eig []float64
	for j := 0; j < a; j++ {
		for k := 0; k < b; k++ {
			eig = append(eig, (math.Cos(2*math.Pi*float64(j)/float64(a))+
				math.Cos(2*math.Pi*float64(k)/float64(b)))/2)
		}
	}
	sortDesc(eig)
	return eig
}

// circulantSpectrum is the transition spectrum of the circulant on n
// vertices with offsets s < n/2, each of which joins v to v±s:
// Σ_s cos(2πjs/n) / |offsets| for every j < n.
func circulantSpectrum(n int, offsets []int) []float64 {
	eig := make([]float64, n)
	for j := range eig {
		for _, s := range offsets {
			eig[j] += math.Cos(2 * math.Pi * float64(j*s) / float64(n))
		}
		eig[j] /= float64(len(offsets))
	}
	sortDesc(eig)
	return eig
}

// hypercubeSpectrum is the transition spectrum of Q_d: (d-2i)/d with
// multiplicity C(d, i).
func hypercubeSpectrum(d int) []float64 {
	var pairs []float64
	binom := 1
	for i := 0; i <= d; i++ {
		pairs = append(pairs, float64(d-2*i)/float64(d), float64(binom))
		binom = binom * (d - i) / (i + 1)
	}
	return repeated(pairs...)
}

// repeated returns the spectrum built from (value, multiplicity) pairs,
// sorted descending.
func repeated(pairs ...float64) []float64 {
	var eig []float64
	for i := 0; i+1 < len(pairs); i += 2 {
		for range int(pairs[i+1]) {
			eig = append(eig, pairs[i])
		}
	}
	sortDesc(eig)
	return eig
}

// TestDenseSpectrumClosedForm checks every eigenvalue of the Householder
// + QL path against a closed form, and the Lanczos extremes against it, at sizes up to n ≈ 1000 and on the
// inputs that leave the reduction nothing to do: n = 2 and 3, complete
// bipartite graphs (rank 2, so the reduced rows vanish) and disconnected
// graphs (a repeated eigenvalue 1), and on spectra with large
// multiplicities.
func TestDenseSpectrumClosedForm(t *testing.T) {
	twoK4, err := graph.FromEdges("2K4", 8, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		want []float64
	}{
		{"K2", mustG(t)(graph.Complete(2)), repeated(1, 1, -1, 1)},
		{"P3", mustG(t)(graph.Path(3)), repeated(1, 1, 0, 1, -1, 1)},
		{"K3", mustG(t)(graph.Complete(3)), repeated(1, 1, -0.5, 2)},
		{"K1,1", mustG(t)(graph.CompleteBipartite(1, 1)), repeated(1, 1, -1, 1)},
		{"K3,4", mustG(t)(graph.CompleteBipartite(3, 4)), repeated(1, 1, 0, 5, -1, 1)},
		{"K20,37", mustG(t)(graph.CompleteBipartite(20, 37)), repeated(1, 1, 0, 55, -1, 1)},
		{"K150,150", mustG(t)(graph.CompleteBipartite(150, 150)), repeated(1, 1, 0, 298, -1, 1)},
		{"two-triangles", mustG(t)(graph.FromEdges("2tri", 6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})),
			repeated(1, 2, -0.5, 4)},
		{"two-K4", twoK4, repeated(1, 2, -1.0/3, 6)},
		// Q_8 is the largest graph Analyze sends down the dense path; its
		// eigenvalue 0 of multiplicity 70 stalls a QL solve whose
		// deflation test looks only at diagonal neighbours.
		{"hypercube-8", mustG(t)(graph.Hypercube(8)), hypercubeSpectrum(8)},
		{"hypercube-9", mustG(t)(graph.Hypercube(9)), hypercubeSpectrum(9)},
		{"torus-17x19", mustG(t)(graph.Torus(17, 19)), torusSpectrum(17, 19)},
		{"torus-18x20", mustG(t)(graph.Torus(18, 20)), torusSpectrum(18, 20)},
		{"torus-23x29", mustG(t)(graph.Torus(23, 29)), torusSpectrum(23, 29)},
		{"circulant-301", mustG(t)(graph.Circulant(301, []int{1, 3, 7})), circulantSpectrum(301, []int{1, 3, 7})},
		{"circulant-640", mustG(t)(graph.Circulant(640, []int{1, 2})), circulantSpectrum(640, []int{1, 2})},
		{"circulant-997", mustG(t)(graph.Circulant(997, []int{1, 2, 5, 11})), circulantSpectrum(997, []int{1, 2, 5, 11})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eig, err := DenseSpectrum(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if len(eig) != len(tc.want) {
				t.Fatalf("%d eigenvalues, want %d", len(eig), len(tc.want))
			}
			for i := range eig {
				if !approxEq(eig[i], tc.want[i], kernelTol) {
					t.Fatalf("eigenvalue[%d] = %.17g, want %.17g (off by %.2g)",
						i, eig[i], tc.want[i], eig[i]-tc.want[i])
				}
			}
			assertExtremes(t, tc.g, eig)
		})
	}
}

// TestTridiagonalizeDegenerate feeds the reduction dense matrices a graph
// cannot produce: n = 1, rows that are already tridiagonal or all zero,
// and negative or repeated eigenvalues. The QL solve of its output must
// return the matrix's eigenvalues.
func TestTridiagonalizeDegenerate(t *testing.T) {
	cases := []struct {
		name string
		a    []float64 // row-major, symmetric
		want []float64 // descending
	}{
		{"1x1", []float64{5}, []float64{5}},
		{"2x2", []float64{2, 1, 1, 2}, []float64{3, 1}},
		{"2x2-diagonal", []float64{-1, 0, 0, 4}, []float64{4, -1}},
		{"3x3-zero", make([]float64, 9), []float64{0, 0, 0}},
		{"3x3-tridiagonal", []float64{0, 1, 0, 1, 0, 1, 0, 1, 0}, []float64{math.Sqrt2, 0, -math.Sqrt2}},
		{"3x3-full", []float64{2, -1, -1, -1, 2, -1, -1, -1, 2}, []float64{3, 3, 0}},
		{"3x3-corner", []float64{0, 0, 1, 0, 0, 0, 1, 0, 0}, []float64{1, 0, -1}},
		{"4x4-all-ones", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []float64{4, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.want)
			d, e := tridiagonalize(append([]float64(nil), tc.a...), n)
			if err := tridiagEigenvalues(d, e); err != nil {
				t.Fatal(err)
			}
			sortDesc(d)
			for i := range d {
				if !approxEq(d[i], tc.want[i], kernelTol) {
					t.Fatalf("eigenvalues %v, want %v", d, tc.want)
				}
			}
		})
	}
}
