package experiments

import (
	"fmt"
	"strings"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/stats"
	"polca/internal/workload"
)

func init() {
	register("figserve", "Extension: slot vs request-level serving — power shape, token latencies, threshold sensitivity", runFigServe)
}

// FigServePower summarizes one run's power distribution.
type FigServePower struct {
	Backend string // "slot" or "serve"
	Policy  string
	Mean    float64
	P50     float64
	P90     float64
	P99     float64
	Peak2s  float64
	Brakes  int
}

// FigServeClass is one Table 6 class's token latencies and energy cost
// under the serving backend.
type FigServeClass struct {
	Class         string
	TTFTp99NoCap  float64
	TTFTp99POLCA  float64
	TBTp99NoCapMS float64
	TBTp99POLCAMS float64
	JPerTokNoCap  float64
	JPerTokPOLCA  float64
}

// FigServeSense is one POLCA threshold combination's serve-mode outcome.
type FigServeSense struct {
	T1, T2      float64
	Brakes      int
	Preemptions int
	TTFTp99     float64 // aggregate across classes
}

// FigServeData carries the whole comparison.
type FigServeData struct {
	Power       []FigServePower
	Classes     []FigServeClass
	Preemptions int // serve/POLCA run, default thresholds
	Batches     int
	KVHighWater float64
	Sensitivity []FigServeSense
}

// runFigServe compares the slot model against the request-level serving
// backend under the same arrivals: the power distribution each exposes to
// POLCA, the token-level latencies (TTFT/TBT) only the serving backend can
// measure, and how sensitive those latencies are to the capping thresholds.
func runFigServe(o Options) (Result, error) {
	const router = "least-queue"
	base := rowSpec{added: 0.30, intensity: 1, days: o.SweepDays}
	slotNoCap, slotPOLCA, srvNoCap, srvPOLCA := base, base, base, base
	slotNoCap.policy, slotPOLCA.policy = "nocap", "polca"
	srvNoCap.policy, srvPOLCA.policy = "nocap", "polca"
	srvNoCap.serveRouter, srvPOLCA.serveRouter = router, router
	specs := []rowSpec{slotNoCap, slotPOLCA, srvNoCap, srvPOLCA}

	combos := [][2]float64{{0.75, 0.85}, {0.85, 0.95}}
	if o.Quick {
		combos = nil
	}
	for _, c := range combos {
		s := srvPOLCA
		s.pc = polca.DefaultConfig()
		s.pc.T1, s.pc.T2 = c[0], c[1]
		specs = append(specs, s)
	}

	ms, err := simulateRows(o, specs)
	if err != nil {
		return Result{}, err
	}

	data := FigServeData{}
	backends := []string{"slot", "slot", "serve", "serve"}
	for i := 0; i < 4; i++ {
		u := stats.Sorted(ms[i].Util.Values)
		data.Power = append(data.Power, FigServePower{
			Backend: backends[i], Policy: specs[i].name(),
			Mean: ms[i].Util.Mean(),
			P50:  stats.PercentileSorted(u, 50), P90: stats.PercentileSorted(u, 90),
			P99: stats.PercentileSorted(u, 99), Peak2s: ms[i].Util.Peak(),
			Brakes: ms[i].BrakeEvents,
		})
	}

	nc, pc := ms[2], ms[3]
	for _, name := range workload.Names(nc.Config.Classes) {
		data.Classes = append(data.Classes, FigServeClass{
			Class:         name,
			TTFTp99NoCap:  nc.TTFT[name].Percentile(99),
			TTFTp99POLCA:  pc.TTFT[name].Percentile(99),
			TBTp99NoCapMS: nc.TBT[name].Percentile(99) * 1000,
			TBTp99POLCAMS: pc.TBT[name].Percentile(99) * 1000,
			JPerTokNoCap:  nc.ClassJPerToken(name),
			JPerTokPOLCA:  pc.ClassJPerToken(name),
		})
	}
	data.Preemptions = pc.Serve.Preemptions
	data.Batches = pc.Serve.Batches
	data.KVHighWater = pc.Serve.KVHighWaterFrac

	for i, c := range combos {
		m := ms[4+i]
		data.Sensitivity = append(data.Sensitivity, FigServeSense{
			T1: c[0], T2: c[1], Brakes: m.BrakeEvents,
			Preemptions: m.Serve.Preemptions, TTFTp99: aggTTFTp99(m),
		})
	}
	// Include the default combo so the sensitivity table is self-contained.
	if len(combos) > 0 {
		data.Sensitivity = append([]FigServeSense{{
			T1: 0.80, T2: 0.89, Brakes: pc.BrakeEvents,
			Preemptions: pc.Serve.Preemptions, TTFTp99: aggTTFTp99(pc),
		}}, data.Sensitivity...)
	}

	var b strings.Builder
	var powerCells [][]string
	for _, p := range data.Power {
		powerCells = append(powerCells, []string{
			p.Backend, p.Policy, pct(p.Mean), pct(p.P50), pct(p.P90), pct(p.P99), pct(p.Peak2s),
			fmt.Sprintf("%d", p.Brakes),
		})
	}
	b.WriteString("Power utilization distribution (same arrivals, +30% servers):\n")
	b.WriteString(table([]string{"Backend", "Policy", "mean", "p50", "p90", "p99", "peak(2s)", "Brakes"}, powerCells))

	b.WriteString("\nToken latencies and energy under the serving backend (per Table 6 class):\n")
	var classCells [][]string
	for _, c := range data.Classes {
		classCells = append(classCells, []string{
			c.Class,
			fmt.Sprintf("%.2f", c.TTFTp99NoCap), fmt.Sprintf("%.2f", c.TTFTp99POLCA),
			fmt.Sprintf("%.1f", c.TBTp99NoCapMS), fmt.Sprintf("%.1f", c.TBTp99POLCAMS),
			fmt.Sprintf("%.1f", c.JPerTokNoCap), fmt.Sprintf("%.1f", c.JPerTokPOLCA),
		})
	}
	b.WriteString(table([]string{"Class", "TTFT p99 nocap (s)", "TTFT p99 polca (s)", "TBT p99 nocap (ms)", "TBT p99 polca (ms)", "J/tok nocap", "J/tok polca"}, classCells))
	fmt.Fprintf(&b, "\nServe/POLCA scheduler: %d batches, %d preemptions, KV high water %s\n",
		data.Batches, data.Preemptions, pct(data.KVHighWater))

	if len(data.Sensitivity) > 0 {
		b.WriteString("\nPOLCA threshold sensitivity (serving backend):\n")
		var sCells [][]string
		for _, s := range data.Sensitivity {
			sCells = append(sCells, []string{
				comboKey(s.T1, s.T2), fmt.Sprintf("%d", s.Brakes),
				fmt.Sprintf("%d", s.Preemptions), fmt.Sprintf("%.2f", s.TTFTp99),
			})
		}
		b.WriteString(table([]string{"T1-T2", "Brakes", "Preemptions", "TTFT p99 (s)"}, sCells))
	}
	return Result{Text: b.String(), Data: data}, nil
}

// aggTTFTp99 returns the p99 TTFT across every class, merging the
// per-class sketches in stable class order.
func aggTTFTp99(m *cluster.Metrics) float64 {
	agg := obs.NewDigest(obs.DefaultCompression)
	for _, name := range workload.Names(m.Config.Classes) {
		agg.Merge(m.TTFT[name])
	}
	return agg.Percentile(99)
}
