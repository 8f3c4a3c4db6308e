package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cobrawalk/internal/graph"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
	"cobrawalk/internal/rng"
	"cobrawalk/internal/sweep"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errw bytes.Buffer
	err := run(args, &out, &errw)
	return out.String(), err
}

func TestSpecMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csrg")
	out, err := runCLI(t, "-graph", "rand-reg:128:6", "-seed", "9", "-out", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("bad -json output %q: %v", out, err)
	}
	if got["n"] != float64(128) || got["m"] != float64(128*6/2) {
		t.Fatalf("summary n/m wrong: %v", got)
	}

	g, err := graphstore.Mmap(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.RandomRegularConnected(128, 6, rng.NewStream(9, 0x61))
	if err != nil {
		t.Fatal(err)
	}
	wo, wn := want.CSR()
	go_, gn := g.CSR()
	if !slices.Equal(wo, go_) || !slices.Equal(wn, gn) {
		t.Fatal("stored graph differs from the same spec built in-process")
	}

	// Second run without -force must refuse to clobber.
	if _, err := runCLI(t, "-graph", "rand-reg:128:6", "-out", path); err == nil {
		t.Fatal("overwrote existing store without -force")
	}
	if _, err := runCLI(t, "-graph", "rand-reg:128:6", "-seed", "9", "-out", path, "-force"); err != nil {
		t.Fatal(err)
	}
}

// TestFamilyMode pins the pre-population contract: the file graphbuild
// writes for sweep axes is the one the graphcache disk tier looks for,
// holding the graph BuildTopology derives for those axes.
func TestFamilyMode(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "-family", "rand-reg", "-size", "64", "-degree", "4", "-sweep-seed", "7", "-out", dir); err != nil {
		t.Fatal(err)
	}
	want, key, err := sweep.BuildTopology("rand-reg", 64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graphstore.Mmap(filepath.Join(dir, graphcache.StoreFileName(key)))
	if err != nil {
		t.Fatalf("store not at the disk-tier file name: %v", err)
	}
	wo, wn := want.CSR()
	go_, gn := g.CSR()
	if !slices.Equal(wo, go_) || !slices.Equal(wn, gn) {
		t.Fatal("stored graph differs from BuildTopology for the same axes")
	}
}

// TestEdgesMode packs text edge lists through graph.Read: a repeated edge,
// in either orientation, collapses to one, and a list without a "graph"
// line takes its file name.
func TestEdgesMode(t *testing.T) {
	cycle := func(n int) [][2]int32 {
		var pairs [][2]int32
		for v := range n {
			pairs = append(pairs, [2]int32{int32(v), int32((v + 1) % n)})
		}
		return pairs
	}
	cases := []struct {
		name, file, edges string
		wantName          string
		n                 int
		want              [][2]int32
	}{
		{"named", "square.edges", "# a 4-cycle\ngraph square\nn 4\n0 1\n1 2\n2 3\n3 0\n", "square", 4, cycle(4)},
		{"repeated-edge", "rep.edges", "graph rep\nn 4\n0 1\n1 0\n0 1\n1 2\n2 1\n2 3\n", "rep", 4, [][2]int32{{0, 1}, {1, 2}, {2, 3}}},
		{"unnamed", "ring5.edges", "n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", "ring5", 5, cycle(5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join(dir, tc.file)
			if err := os.WriteFile(src, []byte(tc.edges), 0o644); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "g.csrg")
			if _, err := runCLI(t, "-edges", src, "-out", path); err != nil {
				t.Fatal(err)
			}
			g, err := graphstore.Mmap(path)
			if err != nil {
				t.Fatal(err)
			}
			if g.Name() != tc.wantName {
				t.Fatalf("name %q, want %q", g.Name(), tc.wantName)
			}
			want, err := graph.FromEdges(tc.wantName, tc.n, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			wo, wn := want.CSR()
			go_, gn := g.CSR()
			if !slices.Equal(wo, go_) || !slices.Equal(wn, gn) {
				t.Fatalf("stored %v, want %v", g, want)
			}
		})
	}
}

func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-graph", "cycle:8"},                                  // no -out
		{"-out", filepath.Join(dir, "x.csrg")},                 // no mode
		{"-graph", "cycle:8", "-edges", "e", "-out", "x.csrg"}, // two modes
		{"-family", "rand-reg", "-size", "1", "-out", dir},     // size too small
		{"-family", "no-such", "-size", "8", "-out", dir},      // unknown family
		{"-graph", "file:", "-out", filepath.Join(dir, "y.csrg")},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	if _, err := runCLI(t, "-edges", filepath.Join(dir, "no-n.edges"), "-out", filepath.Join(dir, "z.csrg")); err == nil {
		t.Fatal("missing edge file accepted")
	}
	bad := filepath.Join(dir, "bad.edges")
	if err := os.WriteFile(bad, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "-edges", bad, "-out", filepath.Join(dir, "w.csrg")); err == nil || !strings.Contains(err.Error(), "n <count>") {
		t.Fatalf("edge list without n header: err=%v", err)
	}
}
