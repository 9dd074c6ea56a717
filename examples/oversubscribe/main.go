// Oversubscribe: sweep the number of extra servers deployed under a fixed
// row power budget, with and without POLCA, and check the Table 6 SLOs —
// the core question of §6.5: how far can this row be oversubscribed?
package main

import (
	"fmt"
	"log"
	"time"

	"polca/internal/cluster"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/workload"
)

// run simulates one day at the given oversubscription level.
func run(added float64, ctrl cluster.Controller, seed int64) *cluster.Metrics {
	cfg := cluster.Production()
	cfg.AddedFraction = added
	eng := sim.New(seed)
	plan, err := cluster.ProductionArrivals(cfg, 24*time.Hour, eng.Rand("reference"))
	if err != nil {
		log.Fatal(err)
	}
	return cluster.MustRow(eng, cfg, ctrl).Run(plan)
}

func main() {
	const seed = 7
	slos := workload.SLOs()
	levels := []float64{0, 0.15, 0.30, 0.45}

	// The SLO baseline: the un-oversubscribed, uncapped row.
	base := run(0, polca.NoCap{}, seed)
	baseP50 := map[workload.Priority]float64{}
	baseP99 := map[workload.Priority]float64{}
	for _, pri := range []workload.Priority{workload.Low, workload.High} {
		baseP50[pri] = stats.Percentile(base.LatencySec[pri], 50)
		baseP99[pri] = stats.Percentile(base.LatencySec[pri], 99)
	}

	fmt.Println("Oversubscribing a 40-server power budget (1 simulated day per point)")
	fmt.Printf("%-8s %-8s %8s %9s %9s %9s %9s %8s\n",
		"added", "policy", "peak", "LP p50", "LP p99", "HP p50", "HP p99", "brakes")
	for _, added := range levels {
		for _, p := range []struct {
			name string
			mk   func() cluster.Controller
		}{
			{"No-cap", func() cluster.Controller { return polca.NoCap{} }},
			{"POLCA", func() cluster.Controller { return polca.New(polca.DefaultConfig()) }},
		} {
			m := run(added, p.mk(), seed)
			impact := func(pri workload.Priority, p float64, base float64) float64 {
				return stats.Percentile(m.LatencySec[pri], p)/base - 1
			}
			lp50 := impact(workload.Low, 50, baseP50[workload.Low])
			lp99 := impact(workload.Low, 99, baseP99[workload.Low])
			hp50 := impact(workload.High, 50, baseP50[workload.High])
			hp99 := impact(workload.High, 99, baseP99[workload.High])
			ok := "ok"
			if m.BrakeEvents > 0 ||
				lp50 > slos[workload.Low].P50Impact || lp99 > slos[workload.Low].P99Impact ||
				hp50 > slos[workload.High].P50Impact || hp99 > slos[workload.High].P99Impact {
				ok = "SLO MISS"
			}
			fmt.Printf("%-8s %-8s %7.1f%% %+8.1f%% %+8.1f%% %+8.1f%% %+8.1f%% %8d  %s\n",
				fmt.Sprintf("+%.0f%%", added*100), p.name, m.Util.Peak()*100,
				lp50*100, lp99*100, hp50*100, hp99*100, m.BrakeEvents, ok)
		}
	}
	fmt.Println("\nLatency impacts are relative to the default uncapped row; Table 6 SLOs:")
	fmt.Printf("  high priority: p50 < %.0f%%, p99 < %.0f%%; low priority: p50 < %.0f%%, p99 < %.0f%%; 0 brakes\n",
		slos[workload.High].P50Impact*100, slos[workload.High].P99Impact*100,
		slos[workload.Low].P50Impact*100, slos[workload.Low].P99Impact*100)
}
