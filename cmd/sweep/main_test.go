package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runQuiet(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append(args, "-quiet"), &out, io.Discard)
	return out.String(), err
}

func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-families", "complete"},                // no sizes
		{"-families", "complete", "-sizes", "x"}, // bad size
		{"-families", "complete", "-sizes", "16", "-degrees", "y"},
		{"-families", "complete", "-sizes", "16", "-branchings", "z"},
		{"-families", "complete", "-sizes", "16", "-format", "yaml"},
		{"-families", "nosuch", "-sizes", "16"},
		{"-spec", "/nonexistent/spec.json"},
		{"-families", "complete", "-sizes", "16", "-resume"}, // -resume needs -out
	} {
		if _, err := runQuiet(t, args...); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestErrorLine pins the line main prints for a failed run: one "sweep:"
// prefix, whether or not internal/sweep already put one on the error.
func TestErrorLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"spec-validation", []string{"-families", "complete", "-sizes", "16", "-branchings", "1+NaN"},
			"sweep: process: branching Rho = NaN, need 0 <= Rho < 1"},
		{"unknown-family", []string{"-families", "nope", "-sizes", "16"},
			`sweep: unknown family "nope" (want one of rand-reg, complete, torus-2d, hypercube, cycle, or file:<path.csrg>)`},
		{"resume-without-out", []string{"-families", "complete", "-sizes", "16", "-resume"},
			"sweep: -resume requires -out (resume loads records from the artifact dir)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runQuiet(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v should fail", tc.args)
			}
			if got := errorLine(err); got != tc.want {
				t.Fatalf("error line\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

func TestListFamiliesAndPoints(t *testing.T) {
	out, err := runQuiet(t, "-list-families")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"rand-reg", "complete", "torus-2d", "hypercube"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("family listing missing %s:\n%s", fam, out)
		}
	}
	out, err = runQuiet(t, "-families", "complete", "-sizes", "16,32", "-processes", "cobra,push", "-list-points")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"cobra-complete-n16-k2", "push-complete-n32"} {
		if !strings.Contains(out, id) {
			t.Fatalf("point listing missing %s:\n%s", id, out)
		}
	}
}

func TestRunTextSummary(t *testing.T) {
	out, err := runQuiet(t, "-families", "complete", "-sizes", "16", "-trials", "4",
		"-branchings", "2,1+0.5", "-lambda")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cobra-complete-n16-k2", "cobra-complete-n16-k1-rho0.5", "mean", "λ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONSummary(t *testing.T) {
	out, err := runQuiet(t, "-families", "complete", "-sizes", "16", "-trials", "3", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("summary is not one JSON object: %v\n%s", err, out)
	}
	if _, ok := rec["rows"]; !ok {
		t.Fatalf("JSON summary missing rows:\n%s", out)
	}
}

func TestSpecFileAndResume(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	specJSON := `{
  "name": "cli-test",
  "families": ["complete"],
  "sizes": [16, 24],
  "processes": ["cobra", "flood"],
  "trials": 3,
  "seed": 9
}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "artifacts")
	out, err := runQuiet(t, "-spec", specPath, "-out", outDir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep cli-test") {
		t.Fatalf("summary missing spec name:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(outDir, "results.ndjson")); err != nil {
		t.Fatalf("no results.ndjson: %v", err)
	}

	// Re-running without -resume refuses; with -resume it skips all.
	if _, err := runQuiet(t, "-spec", specPath, "-out", outDir); err == nil {
		t.Fatal("occupied artifact dir should refuse without -resume")
	}
	out, err = runQuiet(t, "-spec", specPath, "-out", outDir, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "resumed: 4 of 4") {
		t.Fatalf("resume note missing:\n%s", out)
	}

	// Unknown spec fields are rejected, not ignored.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"families":["complete"],"sizes":[16],"trials":1,"sede":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runQuiet(t, "-spec", bad); err == nil {
		t.Fatal("unknown spec field should fail")
	}
}

// TestDefaultSeedMatchesSpec pins one default master seed across entry
// points: a flags run without -seed and a -spec run of the same sweep
// whose JSON omits "seed" (as a daemon job may) print the same summary
// and write byte-identical results.
func TestDefaultSeedMatchesSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	specJSON := `{"families":["rand-reg"],"sizes":[64],"degrees":[4],"processes":["cobra","bips"],"trials":5}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	flagsDir, specDir := filepath.Join(dir, "flags"), filepath.Join(dir, "spec")
	fromFlags, err := runQuiet(t, "-families", "rand-reg", "-sizes", "64", "-degrees", "4",
		"-processes", "cobra,bips", "-trials", "5", "-format", "json", "-out", flagsDir)
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := runQuiet(t, "-spec", specPath, "-format", "json", "-out", specDir)
	if err != nil {
		t.Fatal(err)
	}
	if fromFlags != fromSpec {
		t.Fatalf("flags run and seedless spec run differ:\n%s\nvs\n%s", fromFlags, fromSpec)
	}
	flagsResults, err := os.ReadFile(filepath.Join(flagsDir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	specResults, err := os.ReadFile(filepath.Join(specDir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flagsResults, specResults) {
		t.Fatal("flags run and seedless spec run wrote different results.ndjson")
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := runQuiet(t, "-version")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cobrawalk") || !strings.Contains(out, "go1") {
		t.Fatalf("-version output %q, want module and toolchain", out)
	}
}

// TestGraphCacheNote: a multi-process sweep on one topology reports the
// cache reuse, and -graph-cache -1 disables the cache (no note).
func TestGraphCacheNote(t *testing.T) {
	args := []string{"-families", "complete", "-sizes", "16", "-processes", "cobra,push,flood", "-trials", "2"}
	out, err := runQuiet(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "graph cache: 1 built, 2 reused") {
		t.Fatalf("summary missing cache note:\n%s", out)
	}
	out, err = runQuiet(t, append(args, "-graph-cache", "-1")...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "graph cache") {
		t.Fatalf("disabled cache still reported:\n%s", out)
	}
}

// TestMetricsFlag pins the -metrics/-list-metrics surface: the registry
// lists, a trajectory-enabled run persists trajectory blocks, and the
// text summary surfaces the extra metrics as notes.
func TestMetricsFlag(t *testing.T) {
	out, err := runQuiet(t, "-list-metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"rounds", "transmissions", "peak-active", "half-coverage", "coverage", "frontier", "trajectory"} {
		if !strings.Contains(out, m) {
			t.Fatalf("metric listing missing %s:\n%s", m, out)
		}
	}

	dir := t.TempDir()
	out, err = runQuiet(t, "-families", "complete", "-sizes", "16", "-trials", "4",
		"-metrics", "rounds,transmissions,peak-active,coverage", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "peak-active: mean") || !strings.Contains(out, "coverage: ") {
		t.Fatalf("summary lacks extra-metric notes:\n%s", out)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Metrics      map[string]json.RawMessage `json:"metrics"`
		Trajectories map[string]struct {
			Rounds []int `json:"rounds"`
		} `json:"trajectories"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"rounds", "transmissions", "peak-active"} {
		if _, ok := rec.Metrics[m]; !ok {
			t.Fatalf("record lacks scalar metric %s: %s", m, blob)
		}
	}
	if traj, ok := rec.Trajectories["coverage"]; !ok || len(traj.Rounds) == 0 {
		t.Fatalf("record lacks coverage trajectory: %s", blob)
	}

	// Unknown metric is rejected up front.
	if _, err := runQuiet(t, "-families", "complete", "-sizes", "16", "-metrics", "latency"); err == nil ||
		!strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("unknown metric: %v", err)
	}
}

// TestSingleTrialCIDash pins the DigestSummary.CI hardening at the CLI:
// a one-trial sweep renders a dash for the half-width instead of failing
// or printing NaN.
func TestSingleTrialCIDash(t *testing.T) {
	out, err := runQuiet(t, "-families", "complete", "-sizes", "16", "-trials", "1")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("single-trial summary prints NaN:\n%s", out)
	}
	if !strings.Contains(out, "cobra-complete-n16-k2") {
		t.Fatalf("single-trial summary missing the point row:\n%s", out)
	}
}

// TestSingleTrialNDJSONNullDispersion pins the N < 2 serialisation on the
// artifact path: a -trials 1 sweep writes metric summaries whose
// variance/std/se are null — the NDJSON mirror of the summary table's
// blank ±95% column — rather than degenerate zeros that read as a
// perfectly concentrated ensemble.
func TestSingleTrialNDJSONNullDispersion(t *testing.T) {
	dir := t.TempDir()
	if _, err := runQuiet(t, "-families", "complete", "-sizes", "16", "-trials", "1", "-out", dir); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"se":null`, `"std":null`, `"variance":null`} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("single-trial record should carry %s:\n%s", want, blob)
		}
	}
	if strings.Contains(string(blob), `"se":0`) {
		t.Fatalf("single-trial record still has zero dispersion:\n%s", blob)
	}
}
