package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graphcache"
	"cobrawalk/internal/process"
)

// testSpec is a small grid that still exercises collapsed axes: a
// degreed family × two degrees, a non-degreed family, a branched and an
// unbranched process.
func testSpec() Spec {
	return Spec{
		Name:       "test",
		Families:   []string{"rand-reg", "complete"},
		Sizes:      []int{24, 32},
		Degrees:    []int{3, 4},
		Processes:  []string{ProcCobra, ProcPush},
		Branchings: []core.Branching{{K: 2}, {K: 1, Rho: 0.5}},
		Trials:     6,
		Seed:       7,
		MaxRounds:  1 << 14,
	}
}

func TestSpecExpansion(t *testing.T) {
	pts, err := testSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	// rand-reg: 2 degrees × 2 sizes × (cobra×2 branchings + push×1) = 12
	// complete: 1 × 2 sizes × 3 = 6
	if len(pts) != 18 {
		t.Fatalf("got %d points, want 18", len(pts))
	}
	seen := make(map[string]bool)
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %s has index %d at position %d", pt.ID, pt.Index, i)
		}
		if seen[pt.ID] {
			t.Fatalf("duplicate ID %s", pt.ID)
		}
		seen[pt.ID] = true
		if pt.Family == "complete" && pt.Degree != 0 {
			t.Fatalf("complete point %s carries degree %d", pt.ID, pt.Degree)
		}
		if pt.Process == ProcPush && pt.Branching.K != 0 {
			t.Fatalf("push point %s carries branching %v", pt.ID, pt.Branching)
		}
		if pt.Seed == 0 {
			t.Fatalf("point %s has zero seed", pt.ID)
		}
	}
	if !seen["cobra-rand-reg-n24-d3-k1-rho0.5"] {
		t.Fatalf("expected canonical ID missing; have %v", keys(seen))
	}
	if !seen["push-complete-n32"] {
		t.Fatalf("collapsed-axis ID missing; have %v", keys(seen))
	}

	// Expansion is deterministic: same spec, same list.
	again, err := testSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Fatal("expansion is not deterministic")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no families", func(s *Spec) { s.Families = nil }, "family"},
		{"unknown family", func(s *Spec) { s.Families = []string{"mobius"} }, "unknown family"},
		{"degreed without degrees", func(s *Spec) { s.Degrees = nil }, "no degrees"},
		{"bad degree", func(s *Spec) { s.Degrees = []int{0} }, "degree"},
		{"no sizes", func(s *Spec) { s.Sizes = nil }, "size"},
		{"tiny size", func(s *Spec) { s.Sizes = []int{1} }, "size"},
		{"unknown process", func(s *Spec) { s.Processes = []string{"gossip"} }, "unknown process"},
		{"kwalk with rho", func(s *Spec) { s.Processes = []string{ProcKWalk} }, "fractional"},
		{"bad K", func(s *Spec) { s.Branchings = []core.Branching{{K: 0}} }, "K"},
		{"bad rho", func(s *Spec) { s.Branchings = []core.Branching{{K: 1, Rho: 1.5}} }, "Rho"},
		{"no trials", func(s *Spec) { s.Trials = 0 }, "trials"},
		{"duplicate size", func(s *Spec) { s.Sizes = []int{24, 24} }, "duplicate"},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mut(&s)
		_, err := s.Points()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	pts, err := Spec{Families: []string{"complete"}, Sizes: []int{16}, Trials: 2, Seed: 1}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.Process != ProcCobra || pt.Branching != core.DefaultBranching || pt.MaxRounds != DefaultMaxRounds {
		t.Fatalf("defaults not applied: %+v", pt)
	}
}

func TestParseBranchings(t *testing.T) {
	got, err := ParseBranchings("2, 1+0.5,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Branching{{K: 2}, {K: 1, Rho: 0.5}, {K: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got, err := ParseBranchings(""); err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
	for _, bad := range []string{"x", "1+x", "1.5"} {
		if _, err := ParseBranchings(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// smallSpec keeps end-to-end engine tests fast.
func smallSpec() Spec {
	return Spec{
		Name:      "small",
		Families:  []string{"rand-reg", "complete"},
		Sizes:     []int{16, 24},
		Degrees:   []int{3},
		Processes: []string{ProcCobra, ProcPush},
		Trials:    5,
		Seed:      11,
		MaxRounds: 1 << 14,
	}
}

// reportJSON canonicalises a report for comparison.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	blob, err := json.Marshal(rep.Results)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestRunWorkerCountIndependence(t *testing.T) {
	base, err := Run(context.Background(), smallSpec(), Options{PointWorkers: 1, TrialWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// rand-reg×1 degree×2 sizes×2 processes + complete×2 sizes×2 = 8.
	if len(base.Results) != 8 || base.Resumed != 0 {
		t.Fatalf("unexpected report shape: %d results, %d resumed", len(base.Results), base.Resumed)
	}
	for _, res := range base.Results {
		rounds, trans := res.Metric(MetricRounds), res.Metric(MetricTransmissions)
		if rounds.N != 5 || trans.N != 5 {
			t.Fatalf("point %s: digests saw %d/%d trials, want 5", res.ID, rounds.N, trans.N)
		}
		if rounds.Mean <= 0 || trans.Mean <= 0 {
			t.Fatalf("point %s: degenerate digests %+v", res.ID, rounds)
		}
		if res.GraphN < res.Size {
			t.Fatalf("point %s: graph_n %d below requested %d", res.ID, res.GraphN, res.Size)
		}
	}
	parallel, err := Run(context.Background(), smallSpec(), Options{PointWorkers: 4, TrialWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, base) != reportJSON(t, parallel) {
		t.Fatal("report depends on worker counts")
	}
}

// TestProcessesDelegateToRegistry pins the single-source-of-truth
// contract: the sweep's process list is the process registry's, so a
// process added there is sweepable with no change in this package.
func TestProcessesDelegateToRegistry(t *testing.T) {
	if got := Processes(); !reflect.DeepEqual(got, process.Names()) {
		t.Fatalf("Processes() = %v, registry has %v", got, process.Names())
	}
	want := []string{ProcCobra, ProcBIPS, ProcPush, ProcPushPull, ProcFlood, ProcKWalk}
	if got := Processes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical order = %v, want %v", got, want)
	}
}

// TestAllProcessesWorkerIndependence runs every registered process
// through the sweep engine and pins that the report is byte-identical
// across worker counts — the determinism contract extended to the whole
// process registry.
func TestAllProcessesWorkerIndependence(t *testing.T) {
	spec := Spec{
		Name:       "all-procs",
		Families:   []string{"rand-reg"},
		Sizes:      []int{24},
		Degrees:    []int{3},
		Processes:  Processes(),
		Branchings: []core.Branching{{K: 2}},
		Trials:     5,
		Seed:       13,
		MaxRounds:  1 << 14,
	}
	base, err := Run(context.Background(), spec, Options{PointWorkers: 1, TrialWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) != len(Processes()) {
		t.Fatalf("got %d results, want one per process (%d)", len(base.Results), len(Processes()))
	}
	for _, res := range base.Results {
		if res.Metric(MetricRounds).N != 5 || res.Metric(MetricRounds).Mean <= 0 || res.Metric(MetricTransmissions).Mean <= 0 {
			t.Fatalf("point %s: degenerate digests %+v", res.ID, res.Metric(MetricRounds))
		}
	}
	parallel, err := Run(context.Background(), spec, Options{PointWorkers: 3, TrialWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, base) != reportJSON(t, parallel) {
		t.Fatal("report depends on worker counts")
	}
}

// TestNativeEnginesWorkerPoolIdentity pins the native cobra/bips engines
// under the sweep worker pool: workers 1 vs 8 must produce byte-identical
// reports. The degree axis is chosen to exercise both native sampling
// paths — degree 4 hits the power-of-two masked tight loop, degree 6 the
// Lemire path — and the branching axis covers the branchless rho == 0
// loops and the rho > 0 fallback. Run under -race in CI this doubles as
// the data-race probe for the construct-once/Reset-many process objects
// and the shared CSR graphs beneath them.
func TestNativeEnginesWorkerPoolIdentity(t *testing.T) {
	spec := Spec{
		Name:       "native-pool",
		Families:   []string{"rand-reg"},
		Sizes:      []int{96},
		Degrees:    []int{4, 6},
		Processes:  []string{ProcCobra, ProcBIPS},
		Branchings: []core.Branching{{K: 2}, {K: 3, Rho: 0.5}},
		Trials:     6,
		Seed:       11,
		MaxRounds:  1 << 14,
	}
	base, err := Run(context.Background(), spec, Options{PointWorkers: 1, TrialWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(base.Results) != want {
		t.Fatalf("got %d results, want %d", len(base.Results), want)
	}
	parallel, err := Run(context.Background(), spec, Options{PointWorkers: 8, TrialWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, base) != reportJSON(t, parallel) {
		t.Fatal("native engine report depends on worker counts")
	}
}

// TestKWalkSweepable pins the satellite: kwalk arrives through the
// registry path with the branching axis as its walker count, and more
// walkers cover no slower.
func TestKWalkSweepable(t *testing.T) {
	spec := Spec{
		Families:   []string{"cycle"},
		Sizes:      []int{24},
		Processes:  []string{ProcKWalk},
		Branchings: []core.Branching{{K: 1}, {K: 8}},
		Trials:     10,
		Seed:       9,
	}
	rep, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	if rep.Results[0].ID != "kwalk-cycle-n24-k1" || rep.Results[1].ID != "kwalk-cycle-n24-k8" {
		t.Fatalf("unexpected point IDs %s, %s", rep.Results[0].ID, rep.Results[1].ID)
	}
	one, eight := rep.Results[0].Metric(MetricRounds).Mean, rep.Results[1].Metric(MetricRounds).Mean
	if eight > one {
		t.Fatalf("8 walkers (%.1f rounds) slower than 1 (%.1f)", eight, one)
	}
}

func TestRunMeasureLambda(t *testing.T) {
	spec := Spec{Families: []string{"complete"}, Sizes: []int{12}, Trials: 2, Seed: 3, MeasureLambda: true}
	rep, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// K_12 has λ = 1/(n-1).
	if got := rep.Results[0].Lambda; got < 0.05 || got > 0.15 {
		t.Fatalf("lambda = %v, want ≈ 1/11", got)
	}
	if deg := rep.Results[0].GraphDegree; deg != 11 {
		t.Fatalf("graph_degree = %d, want 11", deg)
	}
}

// TestEnsembleMatchesRun pins that a point's record is graph acquisition
// plus Ensemble: on the graph BuildTopology realises for each point,
// Ensemble returns the Result Run records, byte for byte as JSON, at a
// different trial worker count.
func TestEnsembleMatchesRun(t *testing.T) {
	spec := Spec{
		Families:      []string{"rand-reg", "complete"},
		Sizes:         []int{64},
		Degrees:       []int{4},
		Processes:     []string{ProcCobra, ProcBIPS, ProcPush},
		Metrics:       []string{MetricRounds, MetricTransmissions, MetricCoverage},
		Trials:        12,
		Seed:          3,
		MeasureLambda: true,
	}
	rep, err := Run(context.Background(), spec, Options{TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("grid has %d points, want 6", len(pts))
	}
	for i, pt := range pts {
		g, _, err := BuildTopology(pt.Family, pt.Size, pt.Degree, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Ensemble(context.Background(), g, pt, Options{TrialWorkers: 3})
		if err != nil {
			t.Fatalf("%s: %v", pt.ID, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rep.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: Ensemble\n%s\nRun\n%s", pt.ID, got, want)
		}
		if res.Lambda == 0 || len(res.Trajectories) != 1 {
			t.Fatalf("%s: record lacks λ or the coverage band: %s", pt.ID, got)
		}
	}
}

func TestRunBips(t *testing.T) {
	spec := Spec{Families: []string{"complete"}, Sizes: []int{16}, Processes: []string{ProcBIPS, ProcPushPull, ProcFlood}, Trials: 3, Seed: 5}
	rep, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Metric(MetricRounds).Mean <= 0 {
			t.Fatalf("point %s: mean rounds %v", res.ID, res.Metric(MetricRounds).Mean)
		}
	}
}

// readTree returns relative path → content for every regular file under
// dir, skipping nothing — so comparisons cover manifest, point records
// and results.ndjson alike.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(blob)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeByteIdentical pins the resume contract: kill a sweep after k
// of m points, re-run with Resume, and every final artifact byte matches
// an uninterrupted run — across different worker counts.
func TestResumeByteIdentical(t *testing.T) {
	spec := smallSpec()

	// Reference: uninterrupted run.
	dirA := t.TempDir()
	repA, err := Run(context.Background(), spec, Options{Dir: dirA, PointWorkers: 2, TrialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 2 completed points.
	dirB := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	_, err = Run(ctx, spec, Options{
		Dir: dirB, PointWorkers: 1, TrialWorkers: 1,
		PointDone: func(Result, bool) {
			if done++; done == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted run should report an error")
	}
	partial := readTree(t, dirB)
	if _, ok := partial["manifest.json"]; !ok {
		t.Fatal("interrupted run left no manifest")
	}
	if _, ok := partial["results.ndjson"]; ok {
		t.Fatal("interrupted run should not have written results.ndjson")
	}
	nPartial := 0
	for rel := range partial {
		if strings.HasPrefix(rel, "points/") {
			nPartial++
		}
	}
	if nPartial < 2 || nPartial >= len(repA.Results) {
		t.Fatalf("interrupted run persisted %d points, want in [2, %d)", nPartial, len(repA.Results))
	}

	// Resume with different worker counts; results must not depend on
	// either the interruption or the scheduling.
	repB, err := Run(context.Background(), spec, Options{Dir: dirB, Resume: true, PointWorkers: 3, TrialWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if repB.Resumed != nPartial {
		t.Fatalf("resume skipped %d points, want %d", repB.Resumed, nPartial)
	}
	treeA, treeB := readTree(t, dirA), readTree(t, dirB)
	if len(treeA) != len(treeB) {
		t.Fatalf("artifact trees differ in size: %d vs %d", len(treeA), len(treeB))
	}
	for rel, want := range treeA {
		if got, ok := treeB[rel]; !ok {
			t.Errorf("resumed tree missing %s", rel)
		} else if got != want {
			t.Errorf("%s differs between uninterrupted and resumed runs", rel)
		}
	}
	if reportJSON(t, repA) != reportJSON(t, repB) {
		t.Fatal("in-memory reports differ between uninterrupted and resumed runs")
	}

	// results.ndjson is the point records concatenated in order.
	var want strings.Builder
	for _, res := range repA.Results {
		want.WriteString(treeA[filepath.Join("points", res.ID+".json")])
	}
	if treeA["results.ndjson"] != want.String() {
		t.Fatal("results.ndjson is not the in-order concatenation of point records")
	}
}

// TestResumeCompletedRunIsNoop re-runs a finished sweep with Resume: all
// points skip and the artifacts are untouched.
func TestResumeCompletedRunIsNoop(t *testing.T) {
	spec := Spec{Families: []string{"complete"}, Sizes: []int{12}, Trials: 2, Seed: 2}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	resumedFlags := make(map[string]bool)
	rep, err := Run(context.Background(), spec, Options{Dir: dir, Resume: true,
		PointDone: func(res Result, resumed bool) { resumedFlags[res.ID] = resumed }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != len(rep.Results) {
		t.Fatalf("resumed %d of %d points", rep.Resumed, len(rep.Results))
	}
	for id, resumed := range resumedFlags {
		if !resumed {
			t.Fatalf("point %s was recomputed", id)
		}
	}
	if !reflect.DeepEqual(before, readTree(t, dir)) {
		t.Fatal("no-op resume modified artifacts")
	}
}

func TestArtifactGuards(t *testing.T) {
	spec := Spec{Families: []string{"complete"}, Sizes: []int{12}, Trials: 2, Seed: 2}
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// Re-running into an occupied dir without Resume is refused.
	if _, err := Run(context.Background(), spec, Options{Dir: dir}); err == nil ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("overwrite guard failed: %v", err)
	}
	// Resuming a different spec is refused.
	other := spec
	other.Seed = 99
	if _, err := Run(context.Background(), other, Options{Dir: dir, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "manifest") {
		t.Fatalf("spec-mismatch guard failed: %v", err)
	}
	// A corrupt point record is an error, not a silent recompute.
	recs, err := filepath.Glob(filepath.Join(dir, pointsDir, "*.json"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no point records: %v", err)
	}
	if err := os.WriteFile(recs[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), spec, Options{Dir: dir, Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt-record guard failed: %v", err)
	}
}

// TestPointSeedStability: a point's seed depends on its identity, not
// its position, so adding a size upstream does not disturb existing
// points.
func TestPointSeedStability(t *testing.T) {
	spec := smallSpec()
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	grown := spec
	grown.Sizes = append([]int{12}, spec.Sizes...)
	grownPts, err := grown.Points()
	if err != nil {
		t.Fatal(err)
	}
	bySeed := make(map[string]uint64)
	for _, pt := range grownPts {
		bySeed[pt.ID] = pt.Seed
	}
	for _, pt := range pts {
		if got, ok := bySeed[pt.ID]; !ok || got != pt.Seed {
			t.Fatalf("point %s seed changed after grid edit: %d vs %d", pt.ID, pt.Seed, got)
		}
	}
}

func TestRunPointErrorNamesPoint(t *testing.T) {
	// A 1-round cap cannot cover K_16, so the point must fail with its ID.
	spec := Spec{Families: []string{"complete"}, Sizes: []int{16}, Trials: 2, Seed: 1, MaxRounds: 1}
	_, err := Run(context.Background(), spec, Options{})
	if err == nil || !strings.Contains(err.Error(), "cobra-complete-n16") {
		t.Fatalf("err = %v, want point ID context", err)
	}
}

// TestGraphSeedSharedAcrossProcesses pins the topology-seed contract:
// every point on the same family/size/degree carries the same GraphSeed
// (so process comparisons are paired on one realised graph and a cache
// can serve the whole fan-out), while distinct topologies differ.
func TestGraphSeedSharedAcrossProcesses(t *testing.T) {
	pts, err := testSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	byTopology := make(map[string]uint64)
	seeds := make(map[uint64]bool)
	for _, pt := range pts {
		topo := pt.topologyID()
		if pt.GraphSeed == 0 {
			t.Fatalf("point %s has zero graph seed", pt.ID)
		}
		if prev, ok := byTopology[topo]; ok {
			if prev != pt.GraphSeed {
				t.Fatalf("topology %s has two graph seeds: %d and %d", topo, prev, pt.GraphSeed)
			}
			continue
		}
		if seeds[pt.GraphSeed] {
			t.Fatalf("distinct topologies share graph seed %d", pt.GraphSeed)
		}
		seeds[pt.GraphSeed] = true
		byTopology[topo] = pt.GraphSeed
	}
	// testSpec: rand-reg × 2 degrees × 2 sizes + complete × 2 sizes = 6.
	if len(byTopology) != 6 {
		t.Fatalf("got %d topologies, want 6", len(byTopology))
	}
}

// TestGraphCacheEffective pins the acceptance criterion: with a shared
// cache, one sweep builds each topology once (misses == topologies,
// hits == points − topologies), a re-run of the same point set is all
// hits, and the report is byte-identical to an uncached run.
func TestGraphCacheEffective(t *testing.T) {
	spec := testSpec()
	pts, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	topologies := make(map[string]bool)
	for _, pt := range pts {
		topologies[pt.topologyID()] = true
	}

	uncached, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache := graphcache.New(0)
	cached, err := Run(context.Background(), spec, Options{GraphCache: cache, PointWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, uncached) != reportJSON(t, cached) {
		t.Fatal("cache changed the results")
	}
	st := cache.Stats()
	if int(st.Misses) != len(topologies) {
		t.Fatalf("first run built %d graphs, want one per topology (%d)", st.Misses, len(topologies))
	}
	if int(st.Hits) != len(pts)-len(topologies) {
		t.Fatalf("first run hit %d times, want %d", st.Hits, len(pts)-len(topologies))
	}

	// Re-running the same point set rebuilds nothing.
	again, err := Run(context.Background(), spec, Options{GraphCache: cache, PointWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, cached) != reportJSON(t, again) {
		t.Fatal("re-run with warm cache changed the results")
	}
	st2 := cache.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("warm re-run rebuilt graphs: %d misses, want still %d", st2.Misses, st.Misses)
	}
	if int(st2.Hits) != int(st.Hits)+len(pts) {
		t.Fatalf("warm re-run hit %d times total, want %d", st2.Hits, int(st.Hits)+len(pts))
	}
}

// TestRunCancellationIsPrompt submits a grid whose single point would run
// a very long trial and cancels immediately: Run must return the
// cancellation error without waiting for the trial to finish.
func TestRunCancellationIsPrompt(t *testing.T) {
	// kwalk K=1 on a 2^20-cycle covers in Θ(n²) ≈ 10^12 rounds per
	// trial; with a 2^40 round cap the single trial would run for hours
	// uncancelled, so only mid-trial cancellation can end this promptly.
	spec := Spec{
		Families:   []string{"cycle"},
		Sizes:      []int{1 << 20},
		Processes:  []string{ProcKWalk},
		Branchings: []core.Branching{{K: 1}},
		Trials:     4,
		Seed:       3,
		MaxRounds:  1 << 40,
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, spec, Options{})
	if err == nil {
		t.Fatal("cancelled run should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — trial did not stop promptly", elapsed)
	}
}
