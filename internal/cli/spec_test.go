package cli

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"cobrawalk/internal/rng"
)

func TestBuildGraphSpecs(t *testing.T) {
	r := rng.New(1)
	cases := []struct {
		spec    string
		n, m    int
		regular int // -1 = don't check
	}{
		{"complete:8", 8, 28, 7},
		{"cycle:9", 9, 9, 2},
		{"path:5", 5, 4, -1},
		{"star:6", 6, 5, -1},
		{"hypercube:4", 16, 32, 4},
		{"torus:4x5", 20, 40, 4},
		{"grid:3x3", 9, 12, -1},
		{"rand-reg:32:4", 32, 64, 4},
		{"erdos-renyi:50:0.2", 50, -1, -1},
		{"circulant:10:1,2", 10, 20, 4},
		{"paley:13", 13, 39, 6},
		{"margulis:4", 16, -1, -1},
		{"complete-bipartite:3:4", 7, 12, -1},
		{"ring-of-cliques:3:4", 12, 21, -1},
		{"barbell:3:2", 8, 9, -1},
		{"petersen", 10, 15, 3},
		{"prism", 6, 9, 3},
	}
	// Every family of the grammar table has a case here.
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[strings.Split(tc.spec, ":")[0]] = true
	}
	if got, want := slices.Sorted(maps.Keys(covered)), slices.Sorted(maps.Keys(families)); !slices.Equal(got, want) {
		t.Errorf("cases cover families %v, table has %v", got, want)
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := BuildGraph(tc.spec, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.n {
				t.Fatalf("N = %d, want %d", g.N(), tc.n)
			}
			if tc.m >= 0 && g.M() != tc.m {
				t.Fatalf("M = %d, want %d", g.M(), tc.m)
			}
			if tc.regular >= 0 {
				reg, err := g.Regularity()
				if err != nil || reg != tc.regular {
					t.Fatalf("regularity = (%d, %v), want %d", reg, err, tc.regular)
				}
			}
		})
	}
}

// TestBuildGraphErrorText pins the error texts the grammar reports: the
// unknown-family, arity, per-kind parse and file: messages, and a
// generator's own rejection passed through unchanged.
func TestBuildGraphErrorText(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", `unknown graph family ""`},
		{"complete", "complete takes 1 argument(s), got 0"},
		{"complete:x", "complete argument 1:"},
		{"torus:3xa", `bad side "a"`},
		{"circulant:10:1,,2", `bad offset ""`},
		{"erdos-renyi:10:x", `bad probability "x"`},
		{"file:", "file: needs a store file path"},
		{"petersen:1", "petersen takes 0 argument(s), got 1"},
		{"cycle:2", "cycle needs n >= 3"},
	}
	for _, tc := range cases {
		_, err := BuildGraph(tc.spec, rng.New(5))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BuildGraph(%q) error = %v, want it to contain %q", tc.spec, err, tc.want)
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	r := rng.New(3)
	bad := []string{
		"",
		"unknown:5",
		"complete",       // missing size
		"complete:x",     // bad number
		"complete:5:9",   // too many args
		"torus:2x4",      // side < 3 rejected by generator
		"torus:axb",      // bad sides
		"rand-reg:10",    // missing degree
		"rand-reg:9:3",   // odd n*r
		"circulant:10:a", // bad offsets
		"erdos-renyi:10:x",
		"petersen:1", // named graphs take no args
		"paley:12",   // not ≡ 1 mod 4
	}
	for _, spec := range bad {
		if _, err := BuildGraph(spec, r); err == nil {
			t.Errorf("BuildGraph(%q) should fail", spec)
		}
	}
}

func TestBuildGraphArgArityPerFamily(t *testing.T) {
	// Every family must reject both missing and surplus arguments, and
	// non-numeric arguments where numbers are expected.
	r := rng.New(4)
	bad := []string{
		"cycle", "cycle:5:6", "cycle:x",
		"path", "path:3:3", "path:y",
		"star", "star:2:2",
		"hypercube", "hypercube:3:4", "hypercube:z",
		"torus", "torus:3x3:4",
		"grid", "grid:2x2:9", "grid:ax2",
		"rand-reg:10:4:1", "rand-reg:a:3", "rand-reg:10:b",
		"erdos-renyi", "erdos-renyi:10", "erdos-renyi:10:0.1:7", "erdos-renyi:q:0.1",
		"circulant", "circulant:10", "circulant:10:1:2", "circulant:w:1",
		"paley", "paley:13:17", "paley:v",
		"margulis", "margulis:3:3", "margulis:m",
		"complete-bipartite", "complete-bipartite:3", "complete-bipartite:3:4:5",
		"complete-bipartite:x:4", "complete-bipartite:3:x",
		"ring-of-cliques", "ring-of-cliques:3", "ring-of-cliques:3:4:5",
		"ring-of-cliques:x:4", "ring-of-cliques:3:x",
		"barbell", "barbell:3", "barbell:3:1:0", "barbell:x:1", "barbell:3:x",
		"prism:0",
	}
	for _, spec := range bad {
		if _, err := BuildGraph(spec, r); err == nil {
			t.Errorf("BuildGraph(%q) should fail", spec)
		}
	}
	// torus:4 is a valid 1-D torus (cycle C4).
	g, err := BuildGraph("torus:4", r)
	if err != nil || g.N() != 4 {
		t.Fatalf("torus:4 = (%v, %v)", g, err)
	}
}
