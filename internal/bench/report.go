// Package bench implements the experiment harness: one function per figure
// and table of the paper, each returning a formatted Report that
// cmd/fastbft-bench prints. All experiments run in the deterministic
// simulator, so their output is reproducible bit for bit.
package bench

import (
	"fmt"
	"strings"
)

// Report is a formatted experiment result.
type Report struct {
	// ID is the experiment identifier (e.g. "F1a", "T1").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the table columns (may be empty for trace-style output).
	Header []string
	// Rows are the table cells.
	Rows [][]string
	// Notes carry free-form observations (expected vs measured shapes).
	Notes []string
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 {
		widths := make([]int, len(r.Header))
		for i, h := range r.Header {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Header)
		sep := make([]string, len(r.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	} else {
		for _, row := range r.Rows {
			b.WriteString(strings.Join(row, "  "))
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// AddRow appends one table row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends one note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
