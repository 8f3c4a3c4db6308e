package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"time"

	"cobrawalk/internal/expt"
)

// paperQuickIDs are the experiments paper-quick runs: E1 through sweep,
// the rest on the internal/core reference engines through
// sim.RunWithState — the second ensemble stack.
var paperQuickIDs = []string{"E1", "E2", "E3", "E7", "E10", "E11", "E13", "E14"}

// paperQuick runs the experiments at quick scale through the expt
// registry, rendering JSON as cmd/experiments -format json does.
type paperQuick struct {
	smoke []byte // last set-up's output, wall-clock columns removed
	quick []byte // last unit's output, wall-clock columns removed
}

func (w *paperQuick) opName() string { return "experiments" }

// setup runs the same experiments at smoke scale: it lets lazy set-up
// finish before timing and checks that the output, without wall-clock
// columns, repeats byte for byte.
func (w *paperQuick) setup(b *bench) error {
	out, _, err := runSuite(b, expt.Smoke, nil)
	if err != nil {
		return err
	}
	if w.smoke != nil && !bytes.Equal(out, w.smoke) {
		b.ops.record(1, false, nil, "smoke-scale experiment output differs between set-ups")
	}
	w.smoke = out
	return nil
}

// runSuite runs every experiment once at scale, counting each as an
// operation, and returns the checked output with wall-clock columns
// removed and each experiment's seconds. With tr non-nil each
// experiment gets a span.
func runSuite(b *bench, scale expt.Scale, tr *tracer) ([]byte, map[string]float64, error) {
	p := expt.Params{Scale: scale, Seed: b.seed, Format: expt.FormatJSON}
	var all bytes.Buffer
	secs := map[string]float64{}
	for _, id := range paperQuickIDs {
		e, err := expt.Lookup(id)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		err = expt.Announce(&buf, p, e)
		if err == nil {
			err = e.Run(context.Background(), &buf, p)
		}
		t1 := time.Now()
		secs[id] = t1.Sub(t0).Seconds()
		if tr != nil {
			tr.add(0, id, "expt", id, t0, t1)
			b.set("expt."+id+"_s", secs[id])
		}
		out, ok := checkExperiment(id, buf.Bytes())
		b.ops.record(1, ok && err == nil, err, id+": verdict not equivalent or output malformed")
		all.Write(out)
	}
	return all.Bytes(), secs, nil
}

// checkExperiment strips wall-clock columns from an experiment's NDJSON
// output and, for E13, requires every verdict note to read
// "equivalent".
func checkExperiment(id string, out []byte) ([]byte, bool) {
	var clean bytes.Buffer
	ok := true
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var tbl map[string]any
		if err := json.Unmarshal(sc.Bytes(), &tbl); err != nil {
			return nil, false
		}
		if cols, isTable := tbl["columns"].([]any); isTable {
			for i, c := range cols {
				name, _ := c.(string)
				if !strings.Contains(name, "wall") {
					continue
				}
				rows, _ := tbl["rows"].([]any)
				for _, r := range rows {
					if row, _ := r.([]any); i < len(row) {
						row[i] = ""
					}
				}
			}
			if id == "E13" {
				notes, _ := tbl["notes"].([]any)
				for _, n := range notes {
					s, _ := n.(string)
					if strings.Contains(s, "→") && !strings.HasSuffix(s, "→ equivalent") {
						ok = false
					}
				}
				ok = ok && len(notes) > 0
			}
		}
		blob, _ := json.Marshal(tbl) // decoded JSON always re-encodes
		clean.Write(append(blob, '\n'))
	}
	return clean.Bytes(), ok && sc.Err() == nil
}

// unit runs the quick-scale suite, each experiment one part of the
// unit; its output must repeat byte for byte across units of one run.
func (w *paperQuick) unit(b *bench) (float64, map[string]float64, error) {
	out, secs, err := runSuite(b, expt.Quick, nil)
	if err != nil {
		return 0, nil, err
	}
	if w.quick != nil && !bytes.Equal(out, w.quick) {
		b.ops.record(1, false, nil, "quick-scale experiment output differs between units")
	}
	w.quick = out
	return float64(len(paperQuickIDs)), secs, nil
}

// traced runs the suite once more with one span per experiment.
func (w *paperQuick) traced(b *bench, untraced float64) error {
	t0 := time.Now()
	out, _, err := runSuite(b, expt.Quick, b.tr)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	if !bytes.Equal(out, w.quick) {
		b.ops.record(1, false, nil, "traced experiment output differs from the untraced unit")
	}
	var self float64
	for _, d := range selfByLayer(b.tr.snapshot()) {
		self += d.Seconds()
	}
	b.set("trace.residual_s", wall-self)
	b.set("trace.overhead", wall/untraced)
	b.note("experiment spans: %d", len(paperQuickIDs))
	return nil
}

func (w *paperQuick) finish(*bench) {}
