package replay

import (
	"os"

	"polca/internal/obs"
)

// SpanStats aggregates a recorded run's request spans into the per-request
// scale factors the regret report uses: how much cap-induced slowdown and
// TTFT the deployed run actually charged each request (PR 5's attribution),
// against which a replay's estimated latency deltas can be read.
type SpanStats struct {
	// Requests counts request ids: a failed-over request's root spans fold
	// into one request.
	Requests int
	// MeanTTFTSec is the mean recorded time-to-first-token of each
	// request's final attempt.
	MeanTTFTSec float64
	// TotalCapSec is the recorded cap-attributed slowdown summed over
	// requests, superseded attempts included; MeanCapSec is the
	// per-request mean.
	TotalCapSec float64
	MeanCapSec  float64
	// TotalEnergyJ is the recorded GPU energy summed over requests,
	// superseded attempts included; MeanEnergyJ is the per-request mean.
	TotalEnergyJ float64
	MeanEnergyJ  float64
}

// LoadSpanStats streams a span trace (polca-sim -spans output) and folds
// it into SpanStats. Only root request spans contribute, folded per request
// by obs.RequestRoots exactly as polca-analyze folds them.
func LoadSpanStats(path string) (*SpanStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reqs := map[int64]*obs.RequestRoots{}
	var ids []int64
	err = obs.ScanSpans(f, nil, func(sp obs.Span) error {
		if sp.Kind != obs.SpanRequest {
			return nil
		}
		r := reqs[sp.Req]
		if r == nil {
			r = &obs.RequestRoots{}
			reqs[sp.Req] = r
			ids = append(ids, sp.Req)
		}
		return r.Add(sp)
	})
	if err != nil {
		return nil, err
	}
	st := &SpanStats{Requests: len(reqs)}
	for _, id := range ids {
		r := reqs[id]
		st.MeanTTFTSec += r.Root.TTFTSec
		st.TotalCapSec += r.CapSec()
		st.TotalEnergyJ += r.EnergyJ()
	}
	if st.Requests > 0 {
		n := float64(st.Requests)
		st.MeanTTFTSec /= n
		st.MeanCapSec = st.TotalCapSec / n
		st.MeanEnergyJ = st.TotalEnergyJ / n
	}
	return st, nil
}
