package graph

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	cases := []func() (*Graph, error){
		func() (*Graph, error) { return Complete(6) },
		func() (*Graph, error) { return Cycle(9) },
		Petersen,
		func() (*Graph, error) { return Hypercube(4) },
		func() (*Graph, error) { return FromEdges("empty5", 5, nil) },
	}
	for _, mk := range cases {
		g := must(t)(mk())
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", g.Name(), err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", g.Name(), err)
		}
		assertSameGraph(t, g, h)
		if h.Name() != g.Name() && !(g.Name() == "" && h.Name() == "unnamed") {
			t.Fatalf("name round-trip: %q -> %q", g.Name(), h.Name())
		}
	}
}

func TestReadRoundTripRandom(t *testing.T) {
	r := rng.New(21)
	for i := 0; i < 10; i++ {
		g, err := ErdosRenyi(40, 0.15, r)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertSameGraph(t, g, h)
	}
}

func assertSameGraph(t *testing.T, g, h *Graph) {
	t.Helper()
	if g.N() != h.N() || g.M() != h.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", g.N(), g.M(), h.N(), h.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		a, b := g.Neighbors(v), h.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d: %d vs %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d: %v vs %v", v, a, b)
			}
		}
	}
}

func TestReadFormats(t *testing.T) {
	t.Run("comments-and-blank-lines", func(t *testing.T) {
		in := "# a triangle\ngraph tri\n\nn 3\n0 1\n# middle comment\n1 2\n2 0\n"
		g, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 3 || g.M() != 3 || g.Name() != "tri" {
			t.Fatalf("parsed %v", g)
		}
	})
	t.Run("either-edge-order", func(t *testing.T) {
		g, err := Read(strings.NewReader("n 3\n1 0\n2 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != 2 {
			t.Fatalf("M = %d", g.M())
		}
	})
	errCases := []struct {
		name, in string
		want     string // substring of the error, when it names a line
	}{
		{"no-header", "0 1\n", "line 1"},
		{"bad-n", "n x\n", "line 1"},
		{"negative-n", "n -3\n", "line 1"},
		// Vertex ids are int32; Build must refuse this count before it
		// allocates n+1 offsets (80 GB).
		{"n-beyond-int32", "n 9999999999\n0 1\n", "9999999999"},
		{"bad-edge-arity", "n 3\n0 1 2\n", "line 2"},
		{"bad-vertex", "n 3\n0 a\n", "line 2"},
		{"out-of-range", "n 3\n0 7\n", ""},
		{"self-loop", "n 3\n1 1\n", ""},
		{"missing-n", "graph g\n", ""},
		// A second header would restart the builder and drop the edges
		// read before it.
		{"second-n", "n 4\n0 1\n1 2\nn 4\n2 3\n", "line 4"},
	}
	for _, tc := range errCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("Read(%q) should fail", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read(%q) error %q does not name %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestWriteRejectsNewlineName(t *testing.T) {
	g, err := FromEdges("bad\nname", 2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err == nil {
		t.Fatal("Write should reject names containing newlines")
	}
}

// TestReadEdgeLinesAllocFree pins the reader's per-line cost: a read
// allocates for the builder's growth and the packed graph, never once per
// edge line.
func TestReadEdgeLinesAllocFree(t *testing.T) {
	g := must(t)(RandomRegular(4096, 8, rng.New(3)))
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(g.M())/100 {
		t.Fatalf("Read of %d edge lines made %.0f allocations", g.M(), allocs)
	}
}

// fieldsEdge is the reference edge-line parse: strings.Fields, then
// strconv.ParseInt(s, 10, 32) on each of exactly two fields.
func fieldsEdge(line string) (u, v int32, ok bool) {
	f := strings.Fields(line)
	if len(f) != 2 {
		return 0, 0, false
	}
	x, err1 := strconv.ParseInt(f[0], 10, 32)
	y, err2 := strconv.ParseInt(f[1], 10, 32)
	return int32(x), int32(y), err1 == nil && err2 == nil
}

// checkParseEdge fails when parseEdge and fieldsEdge disagree on a line.
func checkParseEdge(t *testing.T, line string) {
	t.Helper()
	trimmed := strings.TrimSpace(line)
	if trimmed == "" {
		return
	}
	u, v, err := parseEdge([]byte(trimmed))
	wu, wv, ok := fieldsEdge(trimmed)
	if (err == nil) != ok || ok && (u != wu || v != wv) {
		t.Fatalf("parseEdge(%q) = %d, %d, %v; strings.Fields parse = %d, %d, ok %v", trimmed, u, v, err, wu, wv, ok)
	}
}

// TestParseEdgeMatchesFields pins the allocation-free edge-line parse to
// the strings.Fields reference on every separator and id form.
func TestParseEdgeMatchesFields(t *testing.T) {
	for _, line := range []string{
		"0 1", "12 345", "0\t1", "0 \t  1", "0\u00a01", "0\u2002\u20021", "0\u00851",
		"0\u00a0 1", "+3 -4", "007 08", "-2147483648 2147483647", "2147483648 1",
		"1 -2147483649", "0 1 2", "0\t1\u00a02", "7", "0 x", "x 0", "0x1 2", "1_0 2",
		"+ 1", "- 1", "1 +", "1\xa02", "1\xc2 2", "\u00a01 2", "99999999999999999999 1",
	} {
		checkParseEdge(t, line)
	}
}
