// Package render draws the reproduction's figures as terminal graphics:
// multi-series line charts for power timeseries (Figures 4, 6, 9, 16),
// horizontal bar charts for policy comparisons (Figures 17, 18), shaded
// heatmaps for correlation matrices (Figure 7), and compact sparklines.
// Everything is plain text — the repository has no plotting dependencies.
package render

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"polca/internal/stats"
)

// ChartOptions configures a line chart.
type ChartOptions struct {
	Title  string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 12)
	YMin   float64
	YMax   float64 // YMax <= YMin means autoscale
	YLabel string
	// YFormat formats axis labels (default %.2f).
	YFormat string
}

func (o ChartOptions) withDefaults() ChartOptions {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 12
	}
	if o.YFormat == "" {
		o.YFormat = "%.2f"
	}
	return o
}

// seriesGlyphs mark each series in a multi-series chart.
var seriesGlyphs = []rune("•x+o*#@%")

// Lines renders one or more named series as an ASCII line chart. Series
// are resampled to the chart width (max within each bucket, preserving
// peaks). Names are rendered in a legend in sorted order.
func Lines(series map[string]stats.Series, opts ChartOptions) string {
	opts = opts.withDefaults()
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return "(no series)\n"
	}

	// Autoscale, ignoring non-finite samples.
	lo, hi := opts.YMin, opts.YMax
	if hi <= lo {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, n := range names {
			for _, v := range series[n].Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		if math.IsInf(lo, 1) {
			lo, hi = 0, 1
		}
		if hi == lo {
			hi = lo + 1
		}
		pad := (hi - lo) * 0.05
		lo, hi = lo-pad, hi+pad
	}

	// Paint the grid.
	grid := make([][]rune, opts.Height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", opts.Width))
	}
	for si, n := range names {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		vals := resampleMax(series[n].Values, opts.Width)
		for c, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			frac := (v - lo) / (hi - lo)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			r := opts.Height - 1 - int(frac*float64(opts.Height-1)+0.5)
			grid[r][c] = glyph
		}
	}

	// Assemble with axis labels.
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	labelW := 0
	rowLabels := make([]string, opts.Height)
	for r := 0; r < opts.Height; r++ {
		frac := float64(opts.Height-1-r) / float64(opts.Height-1)
		rowLabels[r] = fmt.Sprintf(opts.YFormat, lo+frac*(hi-lo))
		if len(rowLabels[r]) > labelW {
			labelW = len(rowLabels[r])
		}
	}
	for r := 0; r < opts.Height; r++ {
		label := ""
		if r == 0 || r == opts.Height-1 || r == opts.Height/2 {
			label = rowLabels[r]
		}
		fmt.Fprintf(&b, "%*s │%s\n", labelW, label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%*s └%s\n", labelW, "", strings.Repeat("─", opts.Width))
	// Time axis: start and end.
	first := series[names[0]]
	fmt.Fprintf(&b, "%*s  %-*s%s\n", labelW, "",
		opts.Width-10, formatDur(first.Start), formatDur(first.Start+first.Duration()))
	// Legend.
	var legend []string
	for si, n := range names {
		legend = append(legend, fmt.Sprintf("%c %s", seriesGlyphs[si%len(seriesGlyphs)], n))
	}
	fmt.Fprintf(&b, "%*s  %s\n", labelW, "", strings.Join(legend, "   "))
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "%*s  y: %s\n", labelW, "", opts.YLabel)
	}
	return b.String()
}

// resampleMax buckets vals into width buckets, keeping each bucket's max
// (so short power spikes survive rendering). Produces NaN for empty
// buckets when vals is shorter than width.
func resampleMax(vals []float64, width int) []float64 {
	out := make([]float64, width)
	if len(vals) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for c := 0; c < width; c++ {
		fromF := float64(c) * float64(len(vals)) / float64(width)
		toF := float64(c+1) * float64(len(vals)) / float64(width)
		from, to := int(fromF), int(math.Ceil(toF))
		if to > len(vals) {
			to = len(vals)
		}
		if from >= to {
			out[c] = math.NaN()
			continue
		}
		out[c] = stats.Max(vals[from:to])
	}
	return out
}

// formatDur renders a duration compactly for the time axis.
func formatDur(d interface{ Seconds() float64 }) string {
	s := d.Seconds()
	switch {
	case s >= 48*3600:
		return fmt.Sprintf("%.1fd", s/86400)
	case s >= 2*3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 120:
		return fmt.Sprintf("%.1fm", s/60)
	default:
		return fmt.Sprintf("%.1fs", s)
	}
}

// Bar is one entry of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarOptions configures a horizontal bar chart.
type BarOptions struct {
	Title  string
	Width  int // bar columns (default 50)
	Format string
	// Reference draws a marker at this value (e.g. 1.0 for normalized
	// charts); NaN disables it.
	Reference float64
	// Log renders bar lengths on a log10 scale (Figure 18's brake counts).
	Log bool
}

func (o BarOptions) withDefaults() BarOptions {
	if o.Width <= 0 {
		o.Width = 50
	}
	if o.Format == "" {
		o.Format = "%.3g"
	}
	if o.Reference == 0 {
		o.Reference = math.NaN()
	}
	return o
}

// Bars renders a horizontal bar chart.
func Bars(bars []Bar, opts BarOptions) string {
	opts = opts.withDefaults()
	if len(bars) == 0 {
		return "(no bars)\n"
	}
	labelW, max := 0, math.Inf(-1)
	for _, b := range bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
		max = math.Max(max, b.Value)
	}
	if !math.IsNaN(opts.Reference) {
		max = math.Max(max, opts.Reference)
	}
	if max <= 0 {
		max = 1
	}
	scale := func(v float64) float64 {
		if !opts.Log {
			return v / max
		}
		if v < 1 {
			return 0
		}
		return math.Log10(v+1) / math.Log10(max+1)
	}
	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	refCol := -1
	if !math.IsNaN(opts.Reference) {
		refCol = int(scale(opts.Reference) * float64(opts.Width))
		if refCol >= opts.Width {
			refCol = opts.Width - 1
		}
	}
	for _, bar := range bars {
		n := int(scale(bar.Value)*float64(opts.Width) + 0.5)
		if n > opts.Width {
			n = opts.Width
		}
		row := []rune(strings.Repeat("█", n) + strings.Repeat(" ", opts.Width-n))
		if refCol >= 0 && refCol < opts.Width && row[refCol] == ' ' {
			row[refCol] = '┊'
		}
		fmt.Fprintf(&b, "%-*s │%s│ %s\n", labelW, bar.Label, string(row),
			fmt.Sprintf(opts.Format, bar.Value))
	}
	return b.String()
}

// Heatmap renders a labelled square matrix of values in [-1, 1] with
// shading: deep negative correlations render dark '▓-', positives '▓+'.
func Heatmap(labels []string, m [][]float64, title string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	short := make([]string, len(labels))
	for i, l := range labels {
		if len(l) > 5 {
			short[i] = l[:5]
		} else {
			short[i] = l
		}
	}
	fmt.Fprintf(&b, "%*s", labelW+1, "")
	for _, s := range short {
		fmt.Fprintf(&b, " %-6s", s)
	}
	b.WriteString("\n")
	for i, l := range labels {
		fmt.Fprintf(&b, "%-*s ", labelW, l)
		for j := range labels {
			fmt.Fprintf(&b, " %s", cell(m[i][j]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// cell shades one heatmap value.
func cell(v float64) string {
	mag := math.Abs(v)
	var shade string
	switch {
	case mag >= 0.75:
		shade = "▓▓"
	case mag >= 0.5:
		shade = "▒▒"
	case mag >= 0.25:
		shade = "░░"
	default:
		shade = "  "
	}
	sign := "+"
	if v < 0 {
		sign = "-"
	}
	return fmt.Sprintf("%s%s%.1f", shade, sign, mag)
}
