//go:build ignore

// gen regenerates decisions.jsonl and spans.jsonl, the golden-test
// fixtures: one small deterministic faulted serve-mode run (telemetry
// dropout, a controller crash long enough to engage the deadman watchdog,
// a node death) recorded with both the decision recorder and the span
// tracer, so the replay fixture holds capped ticks, outage epochs,
// watchdog engagement, and router picks with live candidate sets, while
// the span fixture supplies the matching per-request baseline. Run from
// this directory:
//
//	go run gen.go
//
// Then refresh the golden report with `go test .. -run TestGolden -update`.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/trace"
)

func main() {
	cfg := cluster.Production()
	cfg.BaseServers = 4
	cfg.AddedFraction = 0.30
	cfg.BrakeUtil = 0.90
	cfg.BrakeReleaseUtil = 0.80
	cfg.Serve = &serve.Config{Router: "round-robin"}
	spec, err := faults.Parse("tdrop=0.15,crash=2m+45,kill=1@6m+1m")
	if err != nil {
		panic(err)
	}
	cfg.Faults = spec
	cfg.WatchdogEpochs = 5
	cfg.OOBRetryBudget = 8
	cfg.OOBRetryBackoff = 4 * time.Second
	cfg.DropStaleOOB = true
	cfg.ServeRetries = 3
	cfg.ServeRetryBackoff = 2 * time.Second

	ctrl := polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig())
	pspec, gspec, err := polca.DescribeController(ctrl)
	if err != nil {
		panic(err)
	}
	rec := obs.NewDecisionRecorder()
	rec.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Spec, m.Guard, m.Seed = pspec, gspec, cfg.Seed
	})
	spans := obs.NewSpanTracer()
	eng := sim.New(cfg.Seed)
	eng.SetObserver(&obs.Observer{Decisions: rec, Spans: spans})
	row := cluster.MustRow(eng, cfg, ctrl)

	const horizon = 12 * time.Minute
	shape := cfg.Shape()
	rate := 0.95 * float64(cfg.Servers()) / shape.MeanServiceSec
	rates := make([]float64, int(horizon/time.Minute))
	for i := range rates {
		rates[i] = rate
	}
	row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})

	prov := obs.Provenance{
		"tool": "polca-sim", "policy": ctrl.Name(), "seed": cfg.Seed,
		"serve": true, "router": "round-robin", "git": "unknown",
		"faults": "tdrop=0.15,crash=2m+45,kill=1@6m+1m", "watchdog": cfg.WatchdogEpochs,
	}
	write := func(path string, emit func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if err := obs.WriteProvenance(f, prov); err != nil {
			panic(err)
		}
		if err := emit(f); err != nil {
			panic(err)
		}
	}
	write("decisions.jsonl", rec.WriteJSONL)
	write("spans.jsonl", spans.WriteJSONL)
	fmt.Printf("wrote decisions.jsonl (%d decisions) and spans.jsonl (%d spans)\n",
		rec.Len(), spans.Len())
}
