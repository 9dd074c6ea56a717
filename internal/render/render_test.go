package render

import (
	"math"
	"strings"
	"testing"
	"time"

	"polca/internal/stats"
)

func ramp(n int) stats.Series {
	s := stats.Series{Step: time.Second, Values: make([]float64, n)}
	for i := range s.Values {
		s.Values[i] = float64(i)
	}
	return s
}

func TestLinesBasics(t *testing.T) {
	out := Lines(map[string]stats.Series{"ramp": ramp(100)}, ChartOptions{
		Title: "test chart", Width: 40, Height: 8, YLabel: "watts",
	})
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "• ramp") {
		t.Error("missing legend")
	}
	if !strings.Contains(out, "y: watts") {
		t.Error("missing y label")
	}
	lines := strings.Split(out, "\n")
	// Title + 8 plot rows + axis + time + legend + ylabel.
	if len(lines) < 12 {
		t.Errorf("too few lines: %d\n%s", len(lines), out)
	}
	// The ramp ascends: the top row's glyph should be to the right of the
	// bottom row's.
	var topIdx, botIdx int
	for _, l := range lines {
		if i := strings.IndexRune(l, '•'); i >= 0 {
			if topIdx == 0 {
				topIdx = i
			}
			botIdx = i
		}
	}
	if topIdx <= botIdx {
		t.Errorf("ramp renders backwards: top at %d, bottom at %d", topIdx, botIdx)
	}
}

func TestLinesMultiSeries(t *testing.T) {
	a := ramp(50)
	b := ramp(50)
	for i := range b.Values {
		b.Values[i] *= 2
	}
	out := Lines(map[string]stats.Series{"a": a, "b": b}, ChartOptions{Width: 30, Height: 6})
	if !strings.Contains(out, "• a") || !strings.Contains(out, "x b") {
		t.Errorf("legend glyphs wrong:\n%s", out)
	}
}

func TestLinesEmpty(t *testing.T) {
	if out := Lines(nil, ChartOptions{}); !strings.Contains(out, "no series") {
		t.Errorf("empty chart = %q", out)
	}
	// Constant series autoscale must not divide by zero.
	flat := stats.Series{Step: time.Second, Values: []float64{5, 5, 5}}
	out := Lines(map[string]stats.Series{"flat": flat}, ChartOptions{Width: 10, Height: 4})
	if out == "" {
		t.Error("flat series render failed")
	}
}

func TestLinesFixedScaleClamps(t *testing.T) {
	s := stats.Series{Step: time.Second, Values: []float64{-10, 0, 10, 20}}
	out := Lines(map[string]stats.Series{"s": s}, ChartOptions{Width: 8, Height: 4, YMin: 0, YMax: 10})
	if out == "" || strings.Contains(out, "NaN") {
		t.Errorf("clamped render bad:\n%s", out)
	}
}

func TestResampleMax(t *testing.T) {
	vals := []float64{1, 9, 2, 3, 8, 1}
	out := resampleMax(vals, 3)
	want := []float64{9, 3, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("resample[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Upsampling produces NaN gaps but keeps all values.
	up := resampleMax([]float64{5}, 4)
	found := false
	for _, v := range up {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Error("upsample lost the value")
	}
	for _, v := range resampleMax(nil, 3) {
		if !math.IsNaN(v) {
			t.Error("empty input should give NaN buckets")
		}
	}
}

func TestBars(t *testing.T) {
	out := Bars([]Bar{
		{Label: "POLCA", Value: 1.0},
		{Label: "No-cap", Value: 2.0},
	}, BarOptions{Title: "latency", Reference: 1.0})
	if !strings.Contains(out, "latency") || !strings.Contains(out, "POLCA") {
		t.Errorf("bars missing content:\n%s", out)
	}
	// No-cap's bar is twice as long.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	count := func(l string) int { return strings.Count(l, "█") }
	if count(lines[2]) <= count(lines[1]) {
		t.Errorf("bar lengths wrong:\n%s", out)
	}
	// Reference tick visible on the shorter bar... reference equals bar 1's
	// length, so check it exists somewhere when value < reference.
	out = Bars([]Bar{{Label: "x", Value: 0.5}}, BarOptions{Reference: 1.0})
	if !strings.Contains(out, "┊") {
		t.Errorf("missing reference marker:\n%s", out)
	}
	if out := Bars(nil, BarOptions{}); !strings.Contains(out, "no bars") {
		t.Error("empty bars")
	}
}

func TestBarsLogScale(t *testing.T) {
	out := Bars([]Bar{
		{Label: "zero", Value: 0},
		{Label: "ten", Value: 10},
		{Label: "tenk", Value: 10000},
	}, BarOptions{Log: true, Width: 40})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	count := func(l string) int { return strings.Count(l, "█") }
	if count(lines[0]) != 0 {
		t.Error("zero should have no bar")
	}
	if !(count(lines[2]) > count(lines[1]) && count(lines[1]) > 0) {
		t.Errorf("log bars not ordered:\n%s", out)
	}
	// Log compresses: 1000x the value should be well under 1000x the bar.
	if count(lines[2]) > 4*count(lines[1]) {
		t.Errorf("log scale not compressing:\n%s", out)
	}
}

func TestHeatmap(t *testing.T) {
	labels := []string{"power", "sm"}
	m := [][]float64{{1, -0.8}, {-0.8, 1}}
	out := Heatmap(labels, m, "corr")
	if !strings.Contains(out, "corr") || !strings.Contains(out, "power") {
		t.Errorf("heatmap missing content:\n%s", out)
	}
	if !strings.Contains(out, "+1.0") || !strings.Contains(out, "-0.8") {
		t.Errorf("heatmap values missing:\n%s", out)
	}
	if !strings.Contains(out, "▓") {
		t.Error("strong correlations should shade dark")
	}
}

func TestCellShading(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.9, "▓▓"}, {0.6, "▒▒"}, {0.3, "░░"}, {0.1, "  "},
	}
	for _, c := range cases {
		if got := cell(c.v); !strings.HasPrefix(got, c.want) {
			t.Errorf("cell(%v) = %q, want prefix %q", c.v, got, c.want)
		}
	}
	if !strings.Contains(cell(-0.9), "-") {
		t.Error("negative sign missing")
	}
}

func TestLinesSurvivesNonFiniteValues(t *testing.T) {
	s := stats.Series{Step: time.Second, Values: []float64{
		1, math.NaN(), math.Inf(1), 2, math.Inf(-1), 3,
	}}
	out := Lines(map[string]stats.Series{"dirty": s}, ChartOptions{Width: 12, Height: 4})
	if out == "" {
		t.Fatal("empty render")
	}
	// All-non-finite series must not panic either.
	bad := stats.Series{Step: time.Second, Values: []float64{math.NaN(), math.Inf(1)}}
	out = Lines(map[string]stats.Series{"bad": bad}, ChartOptions{Width: 6, Height: 3})
	if out == "" {
		t.Fatal("empty render for non-finite series")
	}
}
