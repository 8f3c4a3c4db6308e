package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "complete:32", "-trials", "10", "-seed", "3", "-json"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Graph  string `json:"graph"`
		N      int    `json:"n"`
		Trials int    `json:"trials"`
		Cover  struct {
			N    int     `json:"n"`
			Mean float64 `json:"mean"`
			P95  float64 `json:"p95"`
		} `json:"cover_time"`
		Transmissions struct {
			Mean float64 `json:"mean"`
		} `json:"transmissions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rec.N != 32 || rec.Cover.N != 10 || !(rec.Cover.Mean > 0) || !(rec.Transmissions.Mean > 0) {
		t.Fatalf("JSON record = %+v", rec)
	}
	if strings.Contains(buf.String(), "graph: ") {
		t.Fatal("-json must suppress text output")
	}
}

func TestRunJSONMatchesTextDeterministically(t *testing.T) {
	// The same seed must give the same digest whether or not -json is set
	// and whatever the worker count: the streaming reduction is
	// scheduling-independent.
	var a, b bytes.Buffer
	if err := run([]string{"-graph", "complete:64", "-trials", "50", "-seed", "9", "-workers", "1", "-json"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "complete:64", "-trials", "50", "-seed", "9", "-workers", "8", "-json"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("workers=1 and workers=8 JSON differ:\n%s\n%s", a.String(), b.String())
	}
}

func TestRunBasic(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "complete:32", "-trials", "10", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph:", "λmax:", "cover time", "cover/log2(n):"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunHistogramAndFractional(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "petersen", "-trials", "20", "-k", "1", "-rho", "0.5", "-hist"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "histogram") {
		t.Fatalf("missing histogram:\n%s", buf.String())
	}
}

func TestRunNoSpectral(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "cycle:16", "-trials", "5", "-no-spectral"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "λmax") {
		t.Fatal("spectral output present despite -no-spectral")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "bogus:1"}, &buf); err == nil {
		t.Fatal("bad graph spec should fail")
	}
	if err := run([]string{"-graph", "complete:8", "-k", "0"}, &buf); err == nil {
		t.Fatal("bad branching should fail")
	}
	if err := run([]string{"-graph", "cycle:1000", "-trials", "2", "-max-rounds", "1"}, &buf); err == nil {
		t.Fatal("round-capped run should surface as error")
	}
	if err := run([]string{"-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag should fail")
	}
}

// TestRunSingleTrial: one trial has no standard error, so the cover-time
// interval prints n/a in text and null in JSON instead of a zero-width
// [mean, mean].
func TestRunSingleTrial(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-graph", "rand-reg:1024:8", "-trials", "1", "-no-spectral"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "1 trials): mean 16.00 n/a  median") {
		t.Fatalf("single-trial interval should read n/a:\n%s", out)
	}
	buf.Reset()
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if ci, ok := rec["ci95"]; !ok || string(ci) != "null" {
		t.Fatalf("ci95 = %s, want null", ci)
	}
}

// TestRunZeroGap: a bipartite graph has gap 0, so the Theorem 1 scale
// T = log(n)/gap³ is undefined and prints +Inf, and JSON's gap is 0, not
// the roundoff 1-λ leaves; λ itself keeps its measured value.
func TestRunZeroGap(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-graph", "cycle:1000", "-trials", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "λmax: 1.000000  gap: 0.000000  T=log(n)/gap³: +Inf\n") {
		t.Fatalf("zero-gap line should read T = +Inf:\n%s", out)
	}
	buf.Reset()
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var rec struct{ Lambda, Gap float64 }
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rec.Gap != 0 || rec.Lambda < 1-1e-12 || rec.Lambda > 1 {
		t.Fatalf("lambda = %v, gap = %v, want λ ≈ 1 and gap 0", rec.Lambda, rec.Gap)
	}
}

// TestRunQuantilesInRange: every reported quantile lies in [min, max] of
// its digest. On complete:2 every cover time is 1, where the sketch
// alone reads p50 0.99.
func TestRunQuantilesInRange(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "complete:2", "-trials", "2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, field := range []string{"cover_time", "transmissions"} {
		s := rec[field].(map[string]any)
		lo, hi := s["min"].(float64), s["max"].(float64)
		for _, q := range []string{"p50", "p90", "p95", "p99"} {
			if v := s[q].(float64); v < lo || v > hi {
				t.Errorf("%s %s = %v outside [min %v, max %v]", field, q, v, lo, hi)
			}
		}
	}
}
