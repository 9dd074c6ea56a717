// Package trace implements the paper's trace methodology (§6.4): a
// reference power-utilization series standing in for the confidential
// six-week production trace (June 21 - August 2, 2023), a fitting step that
// converts the reference into a time-varying request arrival plan, and the
// MAPE validation that the paper uses to accept the synthetic trace (within
// 3% of the original power timeseries).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"polca/internal/stats"
)

// Day and Week are the calendar periods of the diurnal model.
const (
	Day  = 24 * time.Hour
	Week = 7 * Day
)

// DiurnalModel describes the aggregate power utilization of an interactive
// inference cluster as a fraction of provisioned row power: a daily cycle,
// a weekly modulation, slow burst episodes, and short-term noise.
type DiurnalModel struct {
	Base      float64 // mean utilization
	DailyAmp  float64 // amplitude of the daily sine
	WeeklyAmp float64 // weekday-vs-weekend modulation
	BurstAmp  float64 // amplitude of occasional slow load bursts
	NoiseStd  float64 // per-sample short-term noise (AR(1)-smoothed)
	PeakHour  float64 // local hour of daily peak
	Step      time.Duration
	Floor     float64 // utilization never falls below this
	Ceiling   float64 // nor rises above this
}

// ProductionInference returns the diurnal model calibrated to Table 4's
// inference cluster: peak utilization ≈ 79%, clear diurnal pattern, small
// short-term variation (max 2 s spike ≈ 9% of provisioned power).
func ProductionInference() DiurnalModel {
	// The curve describes *offered load*; the simulated row adds its own
	// stochastic peaks (queueing and prompt alignment) of ~6-9 points on
	// top, which is what brings the observed row peak to Table 4's ~79%.
	return DiurnalModel{
		Base:      0.555,
		DailyAmp:  0.095,
		WeeklyAmp: 0.030,
		BurstAmp:  0.015,
		NoiseStd:  0.005,
		PeakHour:  14,
		Step:      2 * time.Second,
		Floor:     0.33,
		Ceiling:   0.70,
	}
}

// Validate reports whether the model is usable.
func (m DiurnalModel) Validate() error {
	switch {
	case m.Step <= 0:
		return fmt.Errorf("trace: non-positive step")
	case m.Base <= 0 || m.Base >= 1:
		return fmt.Errorf("trace: base utilization %v outside (0,1)", m.Base)
	case m.Floor < 0 || m.Ceiling > 1 || m.Floor >= m.Ceiling:
		return fmt.Errorf("trace: bad floor/ceiling %v/%v", m.Floor, m.Ceiling)
	case m.DailyAmp < 0 || m.WeeklyAmp < 0 || m.BurstAmp < 0 || m.NoiseStd < 0:
		return fmt.Errorf("trace: negative amplitude")
	}
	return nil
}

// MeanAt returns the noise-free utilization at time t.
func (m DiurnalModel) MeanAt(t time.Duration) float64 {
	hours := t.Seconds() / 3600
	daily := m.DailyAmp * math.Sin(2*math.Pi*(hours-m.PeakHour+6)/24)
	// Weekly modulation: weekdays run hotter than weekends.
	dayIdx := int(t / Day)
	weekly := m.WeeklyAmp
	if wd := dayIdx % 7; wd == 5 || wd == 6 {
		weekly = -m.WeeklyAmp
	}
	u := m.Base + daily + weekly
	return m.clamp(u)
}

func (m DiurnalModel) clamp(u float64) float64 {
	return math.Min(math.Max(u, m.Floor), m.Ceiling)
}

// Reference generates the stand-in for the production power-utilization
// trace: the diurnal mean plus AR(1)-correlated noise and slow bursts. The
// result is deterministic for a given source.
func (m DiurnalModel) Reference(horizon time.Duration, rng *rand.Rand) stats.Series {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	n := int(horizon / m.Step)
	out := stats.Series{Step: m.Step, Values: make([]float64, n)}
	noise := 0.0
	burst := 0.0
	const noiseRho = 0.95  // ~40 s correlation at 2 s steps
	const burstRho = 0.999 // ~30 min episodes
	for i := 0; i < n; i++ {
		t := time.Duration(i) * m.Step
		noise = noiseRho*noise + (1-noiseRho)*rng.NormFloat64()*m.NoiseStd/(1-noiseRho)
		burst = burstRho*burst + (1-burstRho)*rng.NormFloat64()*m.BurstAmp/math.Sqrt(1-burstRho*burstRho)*8
		out.Values[i] = m.clamp(m.MeanAt(t) + noise + burst)
	}
	return out
}

// ClusterShape summarizes the row the arrivals are fitted for.
type ClusterShape struct {
	Servers          int
	ProvisionedWatts float64 // row power budget
	IdleServerWatts  float64 // server power when idle
	BusyServerWatts  float64 // mean server power while serving a request
	MeanServiceSec   float64 // mean request service time at full clocks
}

// Validate reports whether the shape is usable for fitting.
func (s ClusterShape) Validate() error {
	switch {
	case s.Servers <= 0:
		return fmt.Errorf("trace: no servers")
	case s.ProvisionedWatts <= 0:
		return fmt.Errorf("trace: no power budget")
	case s.IdleServerWatts <= 0 || s.BusyServerWatts <= s.IdleServerWatts:
		return fmt.Errorf("trace: bad server power levels")
	case s.MeanServiceSec <= 0:
		return fmt.Errorf("trace: bad service time")
	}
	return nil
}

// BusyFraction inverts the row power model: the fraction of servers that
// must be busy for the row to draw the given utilization of its budget.
// The result is clamped to [0, 0.97] — a row cannot usefully run hotter.
func (s ClusterShape) BusyFraction(util float64) float64 {
	n := float64(s.Servers)
	watts := util * s.ProvisionedWatts
	frac := (watts - n*s.IdleServerWatts) / (n * (s.BusyServerWatts - s.IdleServerWatts))
	return math.Min(math.Max(frac, 0), 0.97)
}

// UtilFromBusy is the forward model: row utilization when the given
// fraction of servers is busy.
func (s ClusterShape) UtilFromBusy(frac float64) float64 {
	n := float64(s.Servers)
	watts := n*s.IdleServerWatts + frac*n*(s.BusyServerWatts-s.IdleServerWatts)
	return watts / s.ProvisionedWatts
}

// RatePlan is a piecewise-constant cluster-wide arrival rate (requests/s).
type RatePlan struct {
	Bucket time.Duration
	Rates  []float64
	// Gap draws a unit-mean inter-arrival gap, which NextAfter divides by
	// the bucket rate; nil means Exp(1), a Poisson process. FitArrivals
	// sets FrontDoorGap, and internal/scenario plugs Gamma and Weibull
	// renewal processes in here.
	Gap func(rng *rand.Rand) float64
}

// frontDoorShape is FrontDoorGap's Erlang shape. The paper gives no
// arrival shape: the value dates from the trace fit's first version, and
// ROADMAP item 8 measures how far the fig13–18 headlines move with it.
const frontDoorShape = 32

// FrontDoorGap is the unit-mean gap of the smoothed, load-balanced traffic
// a production row receives from the cluster front door: an Erlang-32
// draw, the mean of 32 Exp(1) draws (coefficient of variation 1/√32).
func FrontDoorGap(rng *rand.Rand) float64 {
	var sum float64
	for i := 0; i < frontDoorShape; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / frontDoorShape
}

// Horizon returns the time span the plan covers.
func (p RatePlan) Horizon() time.Duration {
	return time.Duration(len(p.Rates)) * p.Bucket
}

// BucketAt returns the index of the bucket covering time t: -1 before the
// plan or for a plan without buckets, and len(Rates) past its horizon.
// RateAt is constant wherever BucketAt is.
func (p RatePlan) BucketAt(t time.Duration) int {
	if p.Bucket <= 0 || t < 0 {
		return -1
	}
	return min(int(t/p.Bucket), len(p.Rates))
}

// RateAt returns the arrival rate at time t (0 outside the plan).
func (p RatePlan) RateAt(t time.Duration) float64 {
	if i := p.BucketAt(t); i >= 0 && i < len(p.Rates) {
		return p.Rates[i]
	}
	return 0
}

// Scale returns a copy of the plan with every rate multiplied by f — used
// when oversubscription adds servers and the cluster absorbs
// proportionally more traffic.
func (p RatePlan) Scale(f float64) RatePlan {
	out := RatePlan{Bucket: p.Bucket, Rates: make([]float64, len(p.Rates)), Gap: p.Gap}
	for i, r := range p.Rates {
		out.Rates[i] = r * f
	}
	return out
}

// FitArrivals converts a reference utilization series into an arrival-rate
// plan for the given cluster shape, bucketed at the given granularity: in
// steady state, busy-server fraction ≈ λ·E[S]/N (Little's law), so
// λ(t) = busyFraction(U(t))·N / E[S].
func FitArrivals(ref stats.Series, shape ClusterShape, bucket time.Duration) (RatePlan, error) {
	if err := shape.Validate(); err != nil {
		return RatePlan{}, err
	}
	if bucket < ref.Step {
		bucket = ref.Step
	}
	coarse := ref.Downsample(bucket)
	plan := RatePlan{Bucket: bucket, Rates: make([]float64, coarse.Len()), Gap: FrontDoorGap}
	for i, u := range coarse.Values {
		busy := shape.BusyFraction(u)
		plan.Rates[i] = busy * float64(shape.Servers) / shape.MeanServiceSec
	}
	return plan, nil
}

// PredictedUtil returns the utilization series the plan should produce
// under the shape's steady-state model, for MAPE validation against the
// reference.
func (p RatePlan) PredictedUtil(shape ClusterShape) stats.Series {
	out := stats.Series{Step: p.Bucket, Values: make([]float64, len(p.Rates))}
	for i, r := range p.Rates {
		busy := r * shape.MeanServiceSec / float64(shape.Servers)
		out.Values[i] = shape.UtilFromBusy(math.Min(busy, 0.97))
	}
	return out
}

// NextAfter returns the first arrival of the plan's arrival process
// strictly after t, or ok == false once the plan is exhausted. The cluster
// simulator uses this to generate arrivals online in O(1) memory.
func (p RatePlan) NextAfter(t time.Duration, rng *rand.Rand) (time.Duration, bool) {
	horizon := p.Horizon()
	if t < 0 {
		t = 0
	}
	for t < horizon {
		rate := p.RateAt(t)
		if rate <= 0 {
			// Skip to the next bucket.
			t = (t/p.Bucket + 1) * p.Bucket
			continue
		}
		gap := time.Duration(p.drawGap(rng) / rate * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		// If the gap crosses into the next bucket, restart there at that
		// bucket's rate — exactly restartable only for Poisson gaps.
		boundary := (t/p.Bucket + 1) * p.Bucket
		if t+gap >= boundary {
			t = boundary
			continue
		}
		t += gap
		if t < horizon {
			return t, true
		}
		return 0, false
	}
	return 0, false
}

// drawGap draws a unit-mean inter-arrival sample: the plan's Gap, or
// Exp(1) when it has none.
func (p RatePlan) drawGap(rng *rand.Rand) float64 {
	if p.Gap != nil {
		return p.Gap(rng)
	}
	return rng.ExpFloat64()
}

// Arrivals generates the arrival times of the plan's arrival process,
// deterministically for a given source.
func (p RatePlan) Arrivals(rng *rand.Rand) []time.Duration {
	var out []time.Duration
	t := time.Duration(0)
	for {
		next, ok := p.NextAfter(t, rng)
		if !ok {
			return out
		}
		out = append(out, next)
		t = next
	}
}

// ValidateFit computes the MAPE between the reference series and the
// plan's predicted utilization (both downsampled to the plan's bucket),
// implementing the paper's acceptance criterion for the synthetic trace.
func ValidateFit(ref stats.Series, plan RatePlan, shape ClusterShape) (float64, error) {
	coarse := ref.Downsample(plan.Bucket)
	pred := plan.PredictedUtil(shape)
	n := coarse.Len()
	if pred.Len() < n {
		n = pred.Len()
	}
	return stats.MAPE(coarse.Values[:n], pred.Values[:n])
}
