package graph

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzRead asserts the text-format parser never panics and that any graph
// it accepts satisfies the structural invariants and round-trips.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"graph t\nn 3\n0 1\n1 2\n",
		"n 0\n",
		"# comment\nn 5\n0 4\n",
		"graph x\nn 2\n1 0\n",
		"n 3\n0 1 2\n",
		"n -1\n",
		"n 3\n1 1\n",
		"garbage\n",
		"n 9999999999999999999\n",
		"graph \nn 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Read(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph violates invariants: %v\ninput: %q", verr, input)
		}
		// Accepted graphs must round-trip (up to name normalisation).
		var buf bytes.Buffer
		if g.N() == 0 {
			return
		}
		if werr := Write(&buf, g); werr != nil {
			// Names with control characters can be rejected at write time;
			// that is the documented contract, not a round-trip failure.
			return
		}
		h, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("round-trip re-read failed: %v\ninput: %q", rerr, input)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round-trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), h.N(), h.M())
		}
	})
}

// FuzzFromCSR asserts FromCSR either rejects a malformed packed adjacency
// (non-monotone or mis-sized degree sequences, out-of-range / unsorted /
// duplicated neighbours, self-loops, asymmetry) or accepts a graph that
// round-trips: rebuilding the accepted graph edge-by-edge through the
// Builder must reproduce the exact same packed arrays. The fuzz input
// encodes per-vertex degree deltas and neighbour ids as signed bytes so
// negative and oversized values probe every validation clause.
func FuzzFromCSR(f *testing.F) {
	f.Add([]byte{2, 2, 2}, []byte{1, 2, 0, 2, 0, 1}) // triangle: accepted
	f.Add([]byte{1, 1}, []byte{1, 0})                // single edge: accepted
	f.Add([]byte{0}, []byte{})                       // isolated vertex
	f.Add([]byte{2, 1}, []byte{1, 1, 0})             // duplicate adjacency
	f.Add([]byte{1, 1}, []byte{0, 1})                // self-loop
	f.Add([]byte{1, 1}, []byte{1, 5})                // neighbour out of range
	f.Add([]byte{1, 1}, []byte{1, 255})              // negative neighbour
	f.Add([]byte{255, 1}, []byte{1, 0})              // negative degree delta
	f.Add([]byte{3, 1}, []byte{1, 0})                // offsets overrun neighbours
	f.Add([]byte{1, 1}, []byte{1, 0, 0})             // trailing neighbours
	f.Fuzz(func(t *testing.T, degs, nbr []byte) {
		if len(degs) > 128 {
			degs = degs[:128]
		}
		offsets := make([]int64, len(degs)+1)
		for i, d := range degs {
			offsets[i+1] = offsets[i] + int64(int8(d))
		}
		neighbors := make([]int32, len(nbr))
		for i, v := range nbr {
			neighbors[i] = int32(int8(v))
		}
		g, err := FromCSR("fuzz", offsets, neighbors)
		if err != nil {
			return // rejected input is fine; panics and corrupt accepts are not
		}
		b := NewBuilder(g.N(), g.M())
		for v := int32(0); int(v) < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				if u > v {
					b.AddEdge(v, u)
				}
			}
		}
		h, berr := b.Build("fuzz")
		if berr != nil {
			t.Fatalf("accepted CSR graph rejected by Builder: %v", berr)
		}
		ho, hn := h.CSR()
		gOff, gNbr := g.CSR()
		if !slices.Equal(ho, gOff) || !slices.Equal(hn, gNbr) {
			t.Fatalf("CSR round-trip mismatch:\n offsets %v -> %v\n neighbors %v -> %v",
				gOff, ho, gNbr, hn)
		}
	})
}

// FuzzBuilder asserts arbitrary edge insertions either error or produce a
// valid graph whose edge set is exactly the inserted pairs with repeats
// and orientation collapsed — never a panic or a corrupt structure.
func FuzzBuilder(f *testing.F) {
	f.Add(5, []byte{0, 1, 1, 2, 2, 3})
	f.Add(2, []byte{0, 0})
	f.Add(0, []byte{})
	f.Add(3, []byte{255, 1})
	f.Add(4, []byte{0, 1, 1, 0, 0, 1, 3, 2})
	f.Fuzz(func(t *testing.T, n int, pairs []byte) {
		if n < 0 || n > 300 {
			return
		}
		b := NewBuilder(n, len(pairs)/2)
		want := map[[2]int32]bool{}
		for i := 0; i+1 < len(pairs); i += 2 {
			u, v := int32(int8(pairs[i])), int32(int8(pairs[i+1]))
			b.AddEdge(u, v)
			want[[2]int32{min(u, v), max(u, v)}] = true
		}
		g, err := b.Build("fuzz")
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("built graph violates invariants: %v", verr)
		}
		got := map[[2]int32]bool{}
		g.Edges(func(u, v int32) bool {
			got[[2]int32{u, v}] = true
			return true
		})
		if !maps.Equal(got, want) {
			t.Fatalf("edge set %v, want %v", got, want)
		}
	})
}

// FuzzParseEdge holds the allocation-free edge-line parse to the
// strings.Fields parse on arbitrary lines.
func FuzzParseEdge(f *testing.F) {
	for _, s := range []string{"0 1", "0\t 1", "0\u00a01", "+1 -2", "1 2 3", "2147483648 0"} {
		f.Add(s)
	}
	f.Fuzz(checkParseEdge)
}
