package polca_test

import (
	"strings"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
)

// rampSeries builds a utilization series rising by step per 2s sample.
func rampSeries(start, step float64, n int) stats.Series {
	s := stats.Series{Step: 2 * time.Second, Values: make([]float64, n)}
	for i := range s.Values {
		s.Values[i] = start + float64(i)*step
	}
	return s
}

func TestRetrainKeepsCalmTrace(t *testing.T) {
	// Flat, low utilization: nothing to change.
	in := polca.RetrainInput{
		Util:       rampSeries(0.6, 0.00001, 1000),
		OOBLatency: 40 * time.Second,
		BrakeUtil:  1.0,
	}
	rec := polca.Retrain(polca.DefaultConfig(), in)
	if rec.Changed {
		t.Errorf("calm trace changed thresholds: %s", rec.Describe())
	}
	if len(rec.Reasons) == 0 {
		t.Error("no reasons given")
	}
}

func TestRetrainTightensOnFastRises(t *testing.T) {
	// A trace with violent 40s rises: T2 must drop below 1 - rise.
	s := rampSeries(0.5, 0, 2000)
	for i := 500; i < 520; i++ {
		s.Values[i] = 0.5 + float64(i-500)*0.012 // +22.8% over 40s
	}
	in := polca.RetrainInput{Util: s, OOBLatency: 40 * time.Second, BrakeUtil: 1.0}
	rec := polca.Retrain(polca.DefaultConfig(), in)
	if !rec.Changed {
		t.Fatalf("violent trace did not change thresholds: %s", rec.Describe())
	}
	// One pass moves by the maximum step (5 points).
	if got := polca.DefaultConfig().T2 - rec.Suggested.T2; got < 0.049 || got > 0.051 {
		t.Errorf("single-pass tightening = %.3f, want the 5-point cap", got)
	}
	if rec.Suggested.T1 >= rec.Suggested.T2 {
		t.Error("T1 not below T2")
	}
	if rec.Suggested.Validate() != nil {
		t.Error("suggestion invalid")
	}
	// Repeated passes converge below the analytic ceiling 1 - rise.
	rise := s.MaxRise(40 * time.Second)
	cfg := polca.DefaultConfig()
	for i := 0; i < 10; i++ {
		r := polca.Retrain(cfg, in)
		if !r.Changed {
			break
		}
		cfg = r.Suggested
	}
	if cfg.T2+rise > 1.0+0.011 {
		t.Errorf("converged T2 %.2f still leaves less than the observed rise %.2f", cfg.T2, rise)
	}
}

func TestRetrainReactsToBrakes(t *testing.T) {
	noBrake := polca.Retrain(polca.DefaultConfig(), polca.RetrainInput{
		Util: rampSeries(0.7, 0.0001, 1000), OOBLatency: 40 * time.Second, BrakeUtil: 1.0,
	})
	withBrake := polca.Retrain(polca.DefaultConfig(), polca.RetrainInput{
		Util: rampSeries(0.7, 0.0001, 1000), OOBLatency: 40 * time.Second, BrakeUtil: 1.0,
		BrakeEvents: 3,
	})
	if withBrake.Suggested.T2 >= noBrake.Suggested.T2 {
		t.Errorf("brakes should tighten T2: %.2f vs %.2f",
			withBrake.Suggested.T2, noBrake.Suggested.T2)
	}
	found := false
	for _, r := range withBrake.Reasons {
		if strings.Contains(r, "brake") {
			found = true
		}
	}
	if !found {
		t.Error("brake reason missing")
	}
}

func TestRetrainDegenerateInput(t *testing.T) {
	rec := polca.Retrain(polca.DefaultConfig(), polca.RetrainInput{})
	if rec.Changed {
		t.Error("empty telemetry must not change thresholds")
	}
}

func TestRetrainNeverSuggestsInvalid(t *testing.T) {
	// Catastrophic rises would push T2 below T1's floor; the recommendation
	// must stay valid (fall back if needed).
	s := rampSeries(0.1, 0, 100)
	s.Values[50] = 0.99 // 89% instant rise
	rec := polca.Retrain(polca.DefaultConfig(), polca.RetrainInput{
		Util: s, OOBLatency: 40 * time.Second, BrakeUtil: 1.0,
	})
	if rec.Suggested.Validate() != nil {
		t.Errorf("invalid suggestion: %+v", rec.Suggested)
	}
}

func TestRetrainFromMetricsIntegration(t *testing.T) {
	cfg := cluster.Production()
	cfg.BaseServers = 8
	eng := sim.New(5)
	shape := cfg.Shape()
	rate := 0.65 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, 60)
	for i := range rates {
		rates[i] = rate
	}
	row := cluster.MustRow(eng, cfg, polca.New(polca.DefaultConfig()))
	m := row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})
	rec := polca.RetrainFromMetrics(polca.DefaultConfig(), m)
	if rec.Suggested.Validate() != nil {
		t.Errorf("invalid suggestion from metrics: %+v", rec.Suggested)
	}
	if !strings.Contains(rec.Describe(), "current:") {
		t.Error("Describe missing content")
	}
}
