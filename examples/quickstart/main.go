// Quickstart: build a 40-server BLOOM inference row, attach the POLCA
// dual-threshold power manager, oversubscribe it by 30%, and simulate six
// hours of production-shaped traffic.
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

func main() {
	// 1. Describe the row: Table 2's production configuration, with 30%
	//    more servers deployed under the same power budget.
	cfg := cluster.Production()
	cfg.AddedFraction = 0.30

	// 2. Generate a production-shaped arrival trace (§6.4): a diurnal
	//    reference power curve, fitted to a request arrival plan, scaled
	//    for the extra servers.
	horizon := 6 * time.Hour
	eng := sim.New(42)
	plan, err := cluster.ProductionArrivals(cfg, horizon, eng.Rand("reference"))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Attach POLCA (Table 5's dual-threshold policy) and run.
	row, err := cluster.NewRow(eng, cfg, polca.New(polca.DefaultConfig()))
	if err != nil {
		log.Fatal(err)
	}
	m := row.Run(plan)

	// 4. Report.
	fmt.Printf("POLCA quickstart: %d servers on a %d-server power budget (%.0f kW)\n",
		cfg.Servers(), cfg.BaseServers, m.Provisioned/1000)
	fmt.Printf("  simulated %v, served %d requests\n",
		horizon, m.Completed[workload.Low]+m.Completed[workload.High])
	fmt.Printf("  power: mean %.1f%%, peak %.1f%% of provisioned — %d power brakes\n",
		m.Util.Mean()*100, m.Util.Peak()*100, m.BrakeEvents)
	for _, pri := range []workload.Priority{workload.High, workload.Low} {
		lat := m.LatencySec[pri]
		fmt.Printf("  %s priority: p50 %.1fs, p99 %.1fs over %d requests\n",
			pri, stats.Percentile(lat, 50), stats.Percentile(lat, 99), len(lat))
	}
	fmt.Printf("  capping commands issued: %d (%d failed silently and were retried)\n",
		m.LockCommands, m.FailedCommands)
}
