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
		N      int     `json:"n"`
		Lambda float64 `json:"lambda"`
		Infec  struct {
			N    int     `json:"n"`
			Mean float64 `json:"mean"`
		} `json:"infection_time"`
		Phases map[string]float64 `json:"phase_mean_rounds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rec.N != 32 || rec.Infec.N != 10 || !(rec.Infec.Mean > 0) || len(rec.Phases) != 3 {
		t.Fatalf("JSON record = %+v", rec)
	}
	if strings.Contains(buf.String(), "λmax") {
		t.Fatal("-json must suppress text output")
	}
}

func TestRunBasic(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "complete:32", "-trials", "10", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph:", "λmax:", "infection time", "phases"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFractional(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-graph", "complete:32", "-trials", "10", "-k", "1", "-rho", "0.4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "infection time") {
		t.Fatalf("missing summary:\n%s", buf.String())
	}
}

func TestRunSourceFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "petersen", "-trials", "5", "-source", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "bogus"}, &buf); err == nil {
		t.Fatal("bad spec should fail")
	}
	if err := run([]string{"-graph", "petersen", "-source", "99"}, &buf); err == nil {
		t.Fatal("bad source should fail")
	}
	if err := run([]string{"-graph", "cycle:500", "-trials", "2", "-max-rounds", "1"}, &buf); err == nil {
		t.Fatal("capped run should fail")
	}
	if err := run([]string{"-graph", "petersen", "-fast"}, &buf); err == nil {
		t.Fatal("-fast is not a flag and should fail")
	}
}

// TestRunPhaseMeansSkipIncomplete: on Petersen the small-set target
// m = ⌈4·log₂ 10⌉ = 14 is above n, so no trial completes phase 1 or 2.
// Their means print n/a, and JSON null, instead of averaging the -1
// "never completed" sentinel; phase 3 still reports its mean.
func TestRunPhaseMeansSkipIncomplete(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "petersen", "-trials", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "phases (m=14): 1→m n/a   m→0.9n n/a   0.9n→n ") ||
		strings.Contains(out, "-1.00") {
		t.Fatalf("phase line should read n/a for phases 1 and 2:\n%s", out)
	}
	buf.Reset()
	if err := run([]string{"-graph", "petersen", "-trials", "5", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Phases map[string]*float64 `json:"phase_mean_rounds"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(rec.Phases) != 3 || rec.Phases["small"] != nil || rec.Phases["growth"] != nil ||
		rec.Phases["finish"] == nil || *rec.Phases["finish"] < 1 {
		t.Fatalf("phase means = %s, want small and growth null, finish >= 1", buf.String())
	}
}

// TestRunSingleTrial: one trial has no standard error, so the
// infection-time interval prints n/a in text and null in JSON instead of
// a zero-width [mean, mean].
func TestRunSingleTrial(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-graph", "rand-reg:1024:8", "-trials", "1"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "1 trials): mean 14.00 n/a  median") {
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

// TestRunZeroGap: a bipartite graph has gap 0, and JSON's gap reads 0,
// not the roundoff 1-λ leaves; λ itself keeps its measured value.
func TestRunZeroGap(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-graph", "cycle:1000", "-trials", "2"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "λmax: 1.000000  gap: 0.000000\n") {
		t.Fatalf("zero-gap line:\n%s", out)
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
// the infection times. The sketch alone answers with a bucket midpoint,
// which read p50 944.05 beside min 949 on cycle:1000 and p99 19.107
// beside max 19 on the G(n, p) row.
func TestRunQuantilesInRange(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "cycle:1000", "-trials", "2"},
		{"-graph", "erdos-renyi:8192:0.002", "-trials", "4"},
	} {
		t.Run(args[1], func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(append(args, "-json"), &buf); err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Infection map[string]any `json:"infection_time"`
			}
			if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
			}
			lo, hi := rec.Infection["min"].(float64), rec.Infection["max"].(float64)
			for _, q := range []string{"p50", "p90", "p95", "p99"} {
				if v := rec.Infection[q].(float64); v < lo || v > hi {
					t.Errorf("%s = %v outside [min %v, max %v]", q, v, lo, hi)
				}
			}
		})
	}
}
