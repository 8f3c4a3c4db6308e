// Package expt defines the reproduction experiments E1-E15: one per
// quantitative claim of the paper (Theorems 1-4, Lemmas 1-4, the Dutta et
// al. comparisons quoted in its introduction, its scope boundaries, and
// the extension workloads catalogued in EXPERIMENTS.md). Each experiment
// builds its workload from internal/graph, measures the spectral parameter
// λ it is conditioned on, runs the registry processes of internal/process
// (directly under internal/sim or internal/sweep, or through the
// estimators of internal/core), fits the claimed scaling law with
// internal/stats, and renders a table.
//
// Ensemble experiments of registry processes run through sweep.Ensemble,
// the computation behind every sweep record, which streams trial results
// into constant-memory stats.Digest accumulators, so full-scale runs
// (10⁵+ trials) never materialise a per-trial slice. Workloads no sweep
// metric records fold their own per-trial values: E6's phase lengths and
// E11's raw tail sample through sweep.Trials, and E12's contact process,
// E13's closed-form reference BIPS and E14's per-vertex COBRA loads
// through sim.ReduceWithState directly. Tables render as aligned ASCII,
// CSV or NDJSON depending on Params.Format.
//
// The experiments are exposed through a registry consumed by
// cmd/experiments and by the repository-level benchmark harness.
package expt

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders an aligned ASCII table (or CSV).
type Table struct {
	title string
	cols  []string
	rows  [][]string
	notes []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{title: title, cols: cols}
}

// AddRow appends a row; it pads or truncates to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.cols))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-form note rendered under the table (fit results,
// verdicts).
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.cols)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		sb.WriteString("  ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// Emit renders the table in the format selected by p — the single call
// every experiment funnels its output through, so one flag switches the
// whole suite between human-readable tables and machine-readable records.
func (t *Table) Emit(w io.Writer, p Params) error {
	switch p.Format {
	case FormatCSV:
		return t.RenderCSV(w)
	case FormatJSON:
		return t.RenderJSON(w)
	default:
		return t.Render(w)
	}
}

// RenderJSON writes the table as a single JSON object (one NDJSON line):
// {"title": ..., "columns": [...], "rows": [[...], ...], "notes": [...]}.
func (t *Table) RenderJSON(w io.Writer) error {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	notes := t.notes
	if notes == nil {
		notes = []string{}
	}
	blob, err := json.Marshal(map[string]any{
		"title":   t.title,
		"columns": t.cols,
		"rows":    rows,
		"notes":   notes,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// RenderCSV writes the rows as CSV (title and notes omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.cols); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
