// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic substrates, one runner per artifact.
// Each runner returns a Report — the same rows/series the paper plots —
// so the cmd/osdp-bench binary and the root bench_test.go share output.
//
// Absolute numbers differ from the paper (the substrates are simulators,
// not the authors' testbed); the experiments are judged on shape: which
// algorithm wins, by roughly what factor, and where the crossovers fall.
// The package tests pin those shapes runner by runner (for example
// TestTable1MatchesPaper and TestFigure4OSDPWinsAtPermissivePolicies).
package experiments

import (
	"fmt"
	"strings"
)

// Report is a printable experiment result table.
type Report struct {
	// Title identifies the experiment ("Figure 4a: ...").
	Title string
	// Headers label the columns.
	Headers []string
	// Rows hold the result cells, already formatted.
	Rows [][]string
	// Notes carry free-form observations appended after the table.
	Notes []string
}

// AddRow appends a formatted row built from arbitrary values: floats are
// rendered with 4 significant digits, everything else via %v.
func (r *Report) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	r.Rows = append(r.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v >= 1000 || v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Title)
	b.WriteByte('\n')
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}
