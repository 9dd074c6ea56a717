package replay

import (
	"fmt"
	"io"

	"polca/internal/obs"
)

// WritePerfetto renders the summaries' top-regret ticks as a Chrome
// trace-event JSON file: one track per alternate policy, one duration slice
// per high-regret telemetry interval, carrying the priced regret in args.
// Loaded next to the run's span trace in ui.perfetto.dev, the slices
// annotate exactly where the deployed configuration left headroom or
// burned latency.
func WritePerfetto(w io.Writer, meta obs.DecisionMeta, sums []*PolicySummary) error {
	durUS := int64(meta.TelemetrySec * 1e6)
	if durUS <= 0 {
		durUS = 2e6
	}
	names := []obs.TraceRow{obs.ProcessName(0, "polca-replay regret")}
	var rows []obs.TraceRow
	for i, s := range sums {
		tid := int32(i + 1)
		names = append(names, obs.ThreadName(0, tid, "vs "+s.Name))
		for _, r := range s.TopRegret {
			label := "headroom-left"
			if r.SavedJ > 0 {
				label = "energy-unsaved"
			}
			if r.BrakeRisk {
				label = "brake-risk"
			}
			rows = append(rows, obs.TraceRow{
				Name: label, Ph: "X", TS: r.At.Microseconds(), Dur: durUS, TID: tid,
				Args: fmt.Sprintf(`"seq":%d,"headroom_j":%g,"saved_j":%g,"latency_s":%g,"rec_lp_mhz":%g,"rec_hp_mhz":%g,"alt_lp_mhz":%g,"alt_hp_mhz":%g`,
					r.Seq, r.HeadroomJ, r.SavedJ, r.LatencyS, r.RecLP, r.RecHP, r.AltLP, r.AltHP),
			})
		}
	}
	return obs.WriteChromeRows(w, names, rows)
}
