package sweep

import (
	"context"
	"slices"
	"strings"
	"testing"

	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/graphstore"
)

// TestDiskTierByteIdentity pins the acceptance contract of the graph
// store: a sweep whose graphs come back from disk-tier store files
// (mmap-loaded) produces artifacts byte-identical to one whose graphs
// came straight from the generators. Three runs share a spec: no cache,
// a cold disk tier (generator builds + spills), and a warm disk tier
// over the same store directory (pure mmap loads).
func TestDiskTierByteIdentity(t *testing.T) {
	spec := testSpec()
	storeDir := t.TempDir()

	dirPlain := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dirPlain, TrialWorkers: 2}); err != nil {
		t.Fatal(err)
	}

	cold, err := graphcache.NewWithOptions(graphcache.Options{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	dirCold := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dirCold, TrialWorkers: 2, GraphCache: cold}); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.DiskWrites == 0 {
		t.Fatalf("cold run spilled nothing: %+v", st)
	}

	warm, err := graphcache.NewWithOptions(graphcache.Options{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	dirWarm := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dirWarm, TrialWorkers: 4, GraphCache: warm}); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.DiskHits == 0 || st.DiskWrites != 0 {
		t.Fatalf("warm run should be all disk hits: %+v", st)
	}

	plain, coldTree, warmTree := readTree(t, dirPlain), readTree(t, dirCold), readTree(t, dirWarm)
	if len(plain) == 0 {
		t.Fatal("no artifacts written")
	}
	for name, want := range plain {
		if coldTree[name] != want {
			t.Fatalf("%s differs between plain and cold-disk-tier runs", name)
		}
		if warmTree[name] != want {
			t.Fatalf("%s differs between generator-built and mmap-loaded runs", name)
		}
	}
}

// TestBuildTopologyMatchesSweepSpill: the graph BuildTopology realises
// for a topology is bit-identical to the store file a disk-tier sweep
// spills for the same axes — the contract that lets cmd/graphbuild
// pre-populate a daemon's -graph-dir.
func TestBuildTopologyMatchesSweepSpill(t *testing.T) {
	spec := Spec{
		Families: []string{"rand-reg"},
		Sizes:    []int{48},
		Degrees:  []int{4},
		Trials:   2,
		Seed:     21,
	}
	storeDir := t.TempDir()
	cache, err := graphcache.NewWithOptions(graphcache.Options{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{GraphCache: cache}); err != nil {
		t.Fatal(err)
	}

	g, key, err := BuildTopology("rand-reg", 48, 4, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := graphstore.Mmap(storeDir + "/" + graphcache.StoreFileName(key))
	if err != nil {
		t.Fatalf("sweep spill not at the key BuildTopology reports: %v", err)
	}
	wo, wn := g.CSR()
	so, sn := spilled.CSR()
	if !slices.Equal(wo, so) || !slices.Equal(wn, sn) {
		t.Fatal("BuildTopology graph differs from the sweep's spilled store file")
	}
}

// TestFileFamilySweep runs a sweep over a file: pseudo-family and checks
// the realised size comes from the store file, the point IDs stay
// filesystem-safe, and a bad path fails spec validation up front.
func TestFileFamilySweep(t *testing.T) {
	g, _, err := BuildTopology("rand-reg", 40, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/topo.csrg"
	if err := graphstore.Write(path, g); err != nil {
		t.Fatal(err)
	}

	spec := Spec{
		Families:  []string{"file:" + path},
		Sizes:     []int{40},
		Trials:    3,
		Seed:      9,
		MaxRounds: 1 << 14,
	}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if strings.ContainsAny(pt.ID, "/:") {
			t.Fatalf("point ID %q is not filesystem-safe", pt.ID)
		}
	}
	rep, err := Run(context.Background(), spec, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.GraphN != g.N() {
			t.Fatalf("realised size %d, want the store file's %d", res.GraphN, g.N())
		}
	}

	if _, err := (Spec{Families: []string{"file:/nonexistent.csrg"}, Sizes: []int{8}, Trials: 1, Seed: 1}).Points(); err == nil {
		t.Fatal("missing store file accepted by spec validation")
	}
}
