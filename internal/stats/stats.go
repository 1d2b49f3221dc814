// Package stats provides the small statistics and table-rendering
// helpers used by the experiment drivers: run summaries, speedup series
// and fixed-width text tables matching the paper's presentation.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Summary describes a sample of float64 values.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// Summarize computes a Summary; an empty sample yields zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// SpeedupSeries converts a time series to speedups relative to base.
func SpeedupSeries(base float64, times []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		if t > 0 {
			out[i] = base / t
		}
	}
	return out
}

// Efficiency returns speedup/workers for each point.
func Efficiency(speedups []float64, workers []int) []float64 {
	out := make([]float64, len(speedups))
	for i := range speedups {
		if i < len(workers) && workers[i] > 0 {
			out[i] = speedups[i] / float64(workers[i])
		}
	}
	return out
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept as-is.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted values: each value is rendered with
// %v for strings/ints and %.2f for floats.
func (t *Table) AddRowf(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case float32:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.AddRow(row...)
}

// String renders the table with a title line, a header row and aligned
// columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting: the
// experiment outputs contain no commas).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
