package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBasic(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "petersen"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vertices:   10", "edges:      15", "3-regular",
		"λmax:       0.666667", "bipartite:  false", "cheeger",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSpectrum(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "cycle:6", "-spectrum"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spectrum (6 eigenvalues)") {
		t.Fatalf("missing spectrum:\n%s", buf.String())
	}
}

func TestRunIrregular(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "star:6"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "irregular") {
		t.Fatalf("missing irregular flag:\n%s", buf.String())
	}
}

func TestRunWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	var buf bytes.Buffer
	if err := run([]string{"-graph", "cycle:5", "-write", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "n 5") {
		t.Fatalf("edge file content: %s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-graph", "nope"}, &buf); err == nil {
		t.Fatal("bad spec should fail")
	}
	if err := run([]string{"-graph", "rand-reg:2000:3", "-spectrum"}, &buf); err == nil {
		t.Fatal("dense spectrum beyond limit should fail")
	}
}

// TestRunJSON pins the -json satellite: one parseable object holding the
// structural and spectral report, matching the text path's numbers.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-graph", "petersen", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Graph     string  `json:"graph"`
		N         int     `json:"n"`
		M         int     `json:"m"`
		Degree    int     `json:"degree"`
		Connected bool    `json:"connected"`
		Bipartite bool    `json:"bipartite"`
		LambdaMax float64 `json:"lambda_max"`
		Gap       float64 `json:"gap"`
		TheoremT  float64 `json:"theorem_t"`
		Spectrum  []float64
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("unparseable -json output %q: %v", out.String(), err)
	}
	// Petersen: 10 vertices, 15 edges, 3-regular, λ_max = |λn| = 2/3.
	if rec.N != 10 || rec.M != 15 || rec.Degree != 3 || !rec.Connected || rec.Bipartite {
		t.Fatalf("petersen report = %+v", rec)
	}
	if rec.LambdaMax < 0.66 || rec.LambdaMax > 0.67 || rec.Gap <= 0 || rec.TheoremT <= 0 {
		t.Fatalf("spectral fields = %+v", rec)
	}
	if strings.Count(out.String(), "\n") != 1 {
		t.Fatalf("-json should emit exactly one line, got %q", out.String())
	}

	// -spectrum folds the dense spectrum into the object.
	out.Reset()
	if err := run([]string{"-graph", "petersen", "-json", "-spectrum"}, &out); err != nil {
		t.Fatal(err)
	}
	var withSpec struct {
		Spectrum []float64 `json:"spectrum"`
	}
	if err := json.Unmarshal(out.Bytes(), &withSpec); err != nil {
		t.Fatal(err)
	}
	if len(withSpec.Spectrum) != 10 {
		t.Fatalf("spectrum has %d eigenvalues, want 10", len(withSpec.Spectrum))
	}
}

// TestRunJSONZeroGap pins -json on bipartite graphs: λ_max = 1 makes
// the theorem time scale +Inf, which must surface as JSON null, not an
// encoding error.
func TestRunJSONZeroGap(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-graph", "cycle:16", "-json"}, &out); err != nil {
		t.Fatalf("-json on an even cycle failed: %v", err)
	}
	var rec struct {
		Bipartite bool     `json:"bipartite"`
		Gap       *float64 `json:"gap"`
		TheoremT  *float64 `json:"theorem_t"`
		MixingUB  *float64 `json:"mixing_ub"`
	}
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("unparseable output %q: %v", out.String(), err)
	}
	if !rec.Bipartite || rec.Gap == nil || *rec.Gap > 1e-9 {
		t.Fatalf("C16 report = %+v, want bipartite with zero gap", rec)
	}
	if rec.TheoremT != nil || rec.MixingUB != nil {
		t.Fatalf("non-finite fields should be null, got T=%v mix=%v", rec.TheoremT, rec.MixingUB)
	}
}

// TestRunIsolatedVertex: vertex 21 of erdos-renyi:250:0.02 at seed 3 is
// isolated, so the transition matrix is undefined. The structural report
// still prints, one line names the vertex in place of the spectral
// lines, and under -json the spectral fields are null beside a
// spectral_error string.
func TestRunIsolatedVertex(t *testing.T) {
	args := []string{"-graph", "erdos-renyi:250:0.02", "-seed", "3"}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vertices:   250\n", "edges:      650\n", "degree:     irregular (min 0, max 12)\n",
		"connected:  false\n", "bipartite:  false\n",
		"spectral:   undefined, graph has an isolated vertex: vertex 21\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "λ") {
		t.Fatalf("spectral lines printed for an undefined spectrum:\n%s", out)
	}

	buf.Reset()
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("unparseable -json output %q: %v", buf.String(), err)
	}
	if rec["n"] != 250.0 || rec["m"] != 650.0 || rec["min_degree"] != 0.0 || rec["connected"] != false {
		t.Fatalf("structural fields = %v", rec)
	}
	for _, k := range []string{"lambda2", "lambda_n", "lambda_max", "gap", "theorem_t",
		"mixing_ub", "cheeger_lo", "cheeger_hi", "gap_constant"} {
		if v, ok := rec[k]; !ok || v != nil {
			t.Errorf("%s = %v (present %v), want null", k, v, ok)
		}
	}
	if got := rec["spectral_error"]; got != "spectral: graph has an isolated vertex: vertex 21" {
		t.Errorf("spectral_error = %v", got)
	}
}
