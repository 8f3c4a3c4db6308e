package expt

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cobrawalk/internal/core"
	"cobrawalk/internal/graph"
	"cobrawalk/internal/process"
	"cobrawalk/internal/stats"
	"cobrawalk/internal/sweep"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "a", "bb", "ccc")
	tbl.AddRow("1", "22", "333")
	tbl.AddRow("x") // short row pads
	tbl.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "ccc", "22", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("demo", "x", "y")
	tbl.AddRow("1", "2")
	tbl.AddRow("3", "4")
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestTableRenderJSONAndEmit(t *testing.T) {
	tbl := NewTable("demo", "x", "y")
	tbl.AddRow("1", "2")
	tbl.AddNote("fit %d", 9)
	var buf bytes.Buffer
	if err := tbl.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rec.Title != "demo" || len(rec.Columns) != 2 || len(rec.Rows) != 1 || rec.Notes[0] != "fit 9" {
		t.Fatalf("JSON record = %+v", rec)
	}

	// Empty tables must still render valid JSON ([] not null).
	var empty bytes.Buffer
	if err := NewTable("t", "a").RenderJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "null") {
		t.Fatalf("empty table JSON has nulls: %s", empty.String())
	}

	// Emit dispatches on Params.Format.
	for _, tc := range []struct {
		format Format
		want   string
	}{
		{FormatText, "demo\n"},
		{FormatCSV, "x,y\n"},
		{FormatJSON, `"title":"demo"`},
	} {
		var out bytes.Buffer
		if err := tbl.Emit(&out, Params{Format: tc.format}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("Emit(%v) missing %q:\n%s", tc.format, tc.want, out.String())
		}
	}
}

func TestParseFormat(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Format
	}{{"", FormatText}, {"text", FormatText}, {"csv", FormatCSV}, {"json", FormatJSON}} {
		got, err := ParseFormat(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFormat(%q) = (%v, %v)", tc.in, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("unknown format should fail")
	}
	if FormatJSON.String() != "json" || FormatCSV.String() != "csv" || FormatText.String() != "text" {
		t.Fatal("Format.String mismatch")
	}
}

func TestAnnounce(t *testing.T) {
	e := Experiment{ID: "E1", Title: "title", Claim: "claim"}
	var txt bytes.Buffer
	if err := Announce(&txt, Params{}, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "=== E1") {
		t.Fatalf("text announce = %q", txt.String())
	}
	var js bytes.Buffer
	if err := Announce(&js, Params{Format: FormatJSON}, e); err != nil {
		t.Fatal(err)
	}
	var rec map[string]string
	if err := json.Unmarshal(js.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON announce: %v\n%s", err, js.String())
	}
	if rec["experiment"] != "E1" || rec["claim"] != "claim" {
		t.Fatalf("JSON announce = %v", rec)
	}
}

// TestStreamingDigestMatchesRawSample pins the ensemble invariant at the
// workload level: sweep.Ensemble's streaming digest sees exactly the
// trials the raw path sees (same seeds, same streams), so its exact
// moments agree with Summarize on the materialised sample, for any
// worker count.
func TestStreamingDigestMatchesRawSample(t *testing.T) {
	g, err := graph.Complete(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p := Params{Scale: Smoke, Seed: 11, Workers: workers}
		raw, err := coverTimes(context.Background(), g, core.DefaultBranching, 120, p, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := summarizeOrErr(raw, "cover times")
		if err != nil {
			t.Fatal(err)
		}
		res, err := sweep.Ensemble(context.Background(), g, sweep.Point{
			Process: process.Cobra, Branching: core.DefaultBranching, Trials: 120,
			Seed: p.Seed, MaxRounds: 1 << 16, Metrics: []string{sweep.MetricRounds},
		}, sweep.Options{TrialWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Metric(sweep.MetricRounds)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("workers=%d: digest %+v, raw %+v", workers, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9 || math.Abs(got.Variance-want.Variance) > 1e-6 {
			t.Fatalf("workers=%d: digest moments %+v, raw %+v", workers, got, want)
		}
	}
}

// TestStreamingDigestDeterministicAcrossWorkers pins the acceptance
// criterion: sweep.Ensemble's summaries are bit-identical for
// Workers=1 and Workers=many.
func TestStreamingDigestDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.Complete(48)
	if err != nil {
		t.Fatal(err)
	}
	summaries := make([]stats.DigestSummary, 0, 3)
	for _, workers := range []int{1, 4, 16} {
		res, err := sweep.Ensemble(context.Background(), g, sweep.Point{
			Process: process.BIPS, Branching: core.DefaultBranching, Trials: 150,
			Seed: 5 ^ 0xb195, MaxRounds: 1 << 16, Metrics: []string{sweep.MetricRounds},
		}, sweep.Options{TrialWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Metric(sweep.MetricRounds))
	}
	for i := 1; i < len(summaries); i++ {
		if summaries[i] != summaries[0] {
			t.Fatalf("summary %d = %+v, want bit-identical to %+v", i, summaries[i], summaries[0])
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scale
	}{{"smoke", Smoke}, {"quick", Quick}, {"full", Full}} {
		got, err := ParseScale(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScale(%q) = (%v, %v)", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale should fail")
	}
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	exps := Registry()
	if len(exps) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(exps))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("E4")
	if err != nil || e.ID != "E4" {
		t.Fatalf("Lookup(E4) = (%v, %v)", e.ID, err)
	}
	if _, err := Lookup("E99"); err == nil {
		t.Fatal("unknown id should fail")
	}
}

// TestExperimentsSmoke runs every experiment end-to-end at smoke scale and
// checks it renders a table without error. This is the integration test of
// the whole pipeline (graph → spectral → process/core → sim → stats →
// table). It also pins each experiment's determinism: the JSON output at
// Workers 1 and at Workers 4 must match byte for byte once wall-clock
// columns are blanked.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiments take a few seconds")
	}
	p := Params{Scale: Smoke, Seed: 7}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(context.Background(), &buf, p); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s output missing its title header:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "---") {
				t.Fatalf("%s produced no table:\n%s", e.ID, out)
			}

			var js [2][]byte
			for i, workers := range []int{1, 4} {
				q := p
				q.Workers, q.Format = workers, FormatJSON
				var buf bytes.Buffer
				if err := e.Run(context.Background(), &buf, q); err != nil {
					t.Fatalf("%s (workers %d) failed: %v", e.ID, workers, err)
				}
				js[i] = blankWallClock(t, buf.Bytes())
			}
			if !bytes.Equal(js[0], js[1]) {
				t.Fatalf("%s JSON differs between workers 1 and 4:\n%s\n%s", e.ID, js[0], js[1])
			}
		})
	}
}

// blankWallClock re-encodes NDJSON tables with every cell of a
// wall-clock column (one whose name contains "wall") emptied.
func blankWallClock(t *testing.T, ndjson []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSpace(ndjson), []byte("\n")) {
		var rec struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
			Notes   []string   `json:"notes"`
			Title   string     `json:"title"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		for c, name := range rec.Columns {
			if !strings.Contains(name, "wall") {
				continue
			}
			for _, row := range rec.Rows {
				if c < len(row) {
					row[c] = ""
				}
			}
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(blob, '\n'))
	}
	return out.Bytes()
}

func TestRunAllStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := RunAll(ctx, &buf, Params{Scale: Smoke, Seed: 1}); err == nil {
		t.Fatal("cancelled RunAll should fail")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != Smoke {
		t.Fatalf("default scale = %v", p.Scale)
	}
}

func TestPick(t *testing.T) {
	if got := pick(Smoke, 1, 2, 3); got != 1 {
		t.Fatalf("smoke pick = %d", got)
	}
	if got := pick(Quick, 1, 2, 3); got != 2 {
		t.Fatalf("quick pick = %d", got)
	}
	if got := pick(Full, 1, 2, 3); got != 3 {
		t.Fatalf("full pick = %d", got)
	}
}

func TestIntSqrt(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 0}, {1, 1}, {3, 1}, {4, 2}, {15, 3}, {16, 4}, {1024, 32}, {1023, 31},
	} {
		if got := intSqrt(tc.in); got != tc.want {
			t.Fatalf("intSqrt(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
