package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSeriesLength reports a series whose X and Y slices disagree in
// length — the plot cannot pair the points. Surfaced as an error so a
// report generator can fail its figure instead of panicking.
var ErrSeriesLength = errors.New("stats: series X/Y length mismatch")

// Series is one named curve for an ASCII plot.
type Series struct {
	Name   string
	Marker byte
	X, Y   []float64
}

// Plot renders series as an ASCII chart of the given size (interior
// plotting area; axes and labels are added around it). The Y axis
// starts at zero unless data goes negative. Useful for eyeballing the
// paper's Figures 5 and 6 in a terminal.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool
	series []Series
}

// NewPlot creates an empty plot.
func NewPlot(title, xlabel, ylabel string) *Plot {
	return &Plot{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Add appends a series; X and Y must have equal lengths, anything else
// returns ErrSeriesLength and leaves the plot unchanged.
func (p *Plot) Add(s Series) error {
	if len(s.X) != len(s.Y) {
		return fmt.Errorf("%w: %q has %d x values and %d y values", ErrSeriesLength, s.Name, len(s.X), len(s.Y))
	}
	if s.Marker == 0 {
		s.Marker = "*+ox#@"[len(p.series)%6]
	}
	p.series = append(p.series, s)
	return nil
}

// Render draws the plot with the given interior width and height in
// character cells.
func (p *Plot) Render(width, height int) string {
	width, height = max(width, 16), max(height, 6)
	// Data ranges.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range p.series {
		for i := range s.X {
			y := s.Y[i]
			if p.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if s.X[i] < xmin {
				xmin = s.X[i]
			}
			if s.X[i] > xmax {
				xmax = s.X[i]
			}
			if y < ymin {
				ymin = y
			}
			if y > ymax {
				ymax = y
			}
			points++
		}
	}
	if points == 0 {
		return "(empty plot)\n"
	}
	if !p.LogY && ymin > 0 {
		ymin = 0
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.series {
		for i := range s.X {
			y := s.Y[i]
			if p.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			cx := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((y - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = s.Marker
		}
	}

	fmtY := func(v float64) string {
		if p.LogY {
			v = math.Pow(10, v)
		}
		return fmt.Sprintf("%8.4g", v)
	}
	var b strings.Builder
	if p.Title != "" {
		b.WriteString(p.Title)
		b.WriteByte('\n')
	}
	for r, row := range grid {
		label := strings.Repeat(" ", 8)
		switch r {
		case 0:
			label = fmtY(ymax)
		case height - 1:
			label = fmtY(ymin)
		case (height - 1) / 2:
			label = fmtY(ymin + (ymax-ymin)*float64(height-1-r)/float64(height-1))
		}
		fmt.Fprintf(&b, "%s |%s\n", label, row)
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-8.4g%s%8.4g  (%s)\n", strings.Repeat(" ", 8),
		xmin, strings.Repeat(" ", max(0, width-16)), xmax, p.XLabel)
	for _, s := range p.series {
		fmt.Fprintf(&b, "%s   %c = %s\n", strings.Repeat(" ", 8), s.Marker, s.Name)
	}
	if p.YLabel != "" {
		fmt.Fprintf(&b, "%s   y: %s%s\n", strings.Repeat(" ", 8), p.YLabel,
			map[bool]string{true: " (log scale)", false: ""}[p.LogY])
	}
	return b.String()
}
