package polca_test

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

// ExampleNew shows the minimal end-to-end use of the library: a production
// row, 30% oversubscription, the default dual-threshold policy, one
// simulated hour of flat traffic.
func ExampleNew() {
	cfg := cluster.Production()
	cfg.BaseServers = 8
	cfg.AddedFraction = 0.30

	eng := sim.New(42)
	rate := 0.6 * float64(cfg.Servers()) / cfg.Shape().MeanServiceSec
	rates := make([]float64, 60)
	for i := range rates {
		rates[i] = rate
	}
	arrivals := trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap}

	row := cluster.MustRow(eng, cfg, polca.New(polca.DefaultConfig()))
	m := row.Run(arrivals)

	fmt.Printf("policy: %s\n", m.Policy)
	fmt.Printf("brakes: %d\n", m.BrakeEvents)
	fmt.Printf("served both priorities: %v\n",
		m.Completed[workload.Low] > 0 && m.Completed[workload.High] > 0)
	// Output:
	// policy: POLCA(T1=80%,T2=89%)
	// brakes: 0
	// served both priorities: true
}

// ExampleTrainThresholds derives T1/T2 from a historical power trace the
// way §6.3 describes.
func ExampleTrainThresholds() {
	ref := trace.ProductionInference().Reference(24*time.Hour, sim.New(1).Rand("trace"))
	cfg := polca.TrainThresholds(ref, 1.0, 40*time.Second)
	fmt.Printf("T1 below T2: %v\n", cfg.T1 < cfg.T2)
	fmt.Printf("T2 leaves headroom below the brake: %v\n", cfg.T2 < 1.0)
	// Output:
	// T1 below T2: true
	// T2 leaves headroom below the brake: true
}
