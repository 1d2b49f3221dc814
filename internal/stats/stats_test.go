package stats

import (
	"errors"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Cores", "Time (s)", "Speedup")
	tb.AddRowf(1, 2029.0, 1.0)
	tb.AddRowf(47, 56.0, 36.17)
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "Cores") || !strings.Contains(out, "Speedup") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "36.17") || !strings.Contains(out, "2029.00") {
		t.Errorf("missing data:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "A", "LongHeader")
	tb.AddRow("xxxxxxxx", "1")
	out := tb.String()
	lines := strings.Split(out, "\n")
	// Column A width must accommodate the 8-char cell: header line pads
	// "A" to 8 chars before the gap.
	if !strings.HasPrefix(lines[0], "A       ") {
		t.Errorf("header not padded: %q", lines[0])
	}
}

func TestTableExtraCells(t *testing.T) {
	tb := NewTable("", "only")
	tb.AddRow("a", "extra")
	if !strings.Contains(tb.String(), "extra") {
		t.Error("extra cell dropped")
	}
}

func TestPlotRender(t *testing.T) {
	p := NewPlot("title", "cores", "speedup")
	if err := p.Add(Series{Name: "a", Marker: '*', X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Series{Name: "b", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}}); err != nil {
		t.Fatal(err)
	}
	out := p.Render(30, 10)
	for _, want := range []string{"title", "*", "cores", "a", "b", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	// The rising series' marker must appear on the top row at the right.
	lines := strings.Split(out, "\n")
	top := lines[1]
	if !strings.Contains(top, "*") {
		t.Errorf("max of rising series not on top row:\n%s", out)
	}
}

func TestPlotLogScale(t *testing.T) {
	p := NewPlot("log", "x", "y")
	p.LogY = true
	if err := p.Add(Series{Name: "s", Marker: '#', X: []float64{1, 2, 3}, Y: []float64{1, 100, 0}}); err != nil {
		t.Fatal(err)
	}
	out := p.Render(20, 8)
	if !strings.Contains(out, "log scale") {
		t.Error("log scale not labelled")
	}
	// Zero values are skipped, not plotted at -inf.
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("bad values in plot:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("", "", "")
	if got := p.Render(20, 8); got != "(empty plot)\n" {
		t.Errorf("empty plot = %q", got)
	}
}

func TestPlotMismatchedSeriesError(t *testing.T) {
	p := NewPlot("", "", "")
	err := p.Add(Series{Name: "bad", X: []float64{1}, Y: nil})
	if !errors.Is(err, ErrSeriesLength) {
		t.Errorf("Add error = %v, want errors.Is ErrSeriesLength", err)
	}
	// The rejected series must not have been half-added.
	if got := p.Render(20, 8); got != "(empty plot)\n" {
		t.Errorf("rejected series leaked into the plot:\n%s", got)
	}
}
