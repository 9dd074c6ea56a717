package replay

import (
	"time"

	"polca/internal/obs"
	"polca/internal/serve"
	"polca/internal/workload"
)

// RouteOutcome is what an alternate router decided on one recorded pick.
type RouteOutcome struct {
	Seq    uint64 // the pick's seq in the log, as TickOutcome.Seq
	At     time.Duration
	Chosen int32 // index into the recorded candidate set (-1 = none)
	// Diverged marks the pick differing from the recorded run's.
	Diverged bool
	// ChosenLoad and BestLoad are the picked replica's queued+running load
	// and the minimum load available in the snapshot, the router-quality
	// axis the summary aggregates.
	ChosenLoad int32
	BestLoad   int32
	// ChosenKV is the picked replica's KV-cache occupancy fraction.
	ChosenKV float64
}

// RouterSummary aggregates one router policy's replayed picks.
type RouterSummary struct {
	Name     string
	Routes   int
	Diverged int
	// MeanExcessLoad is the mean of (chosen load − best available load):
	// zero for a perfect queue balancer, higher when the policy trades
	// balance for affinity or power placement.
	MeanExcessLoad float64
	// MeanChosenKV is the mean KV occupancy of the picked replica.
	MeanChosenKV float64
	// CappedPicks counts picks that landed on a frequency-capped replica.
	CappedPicks int
}

// ReplayRoutes re-runs the log's route decisions through a fresh instance
// of the named router policy, feeding it the recorded candidate snapshots
// in record order. The live row keeps one router instance per priority
// pool (the two streams interleave in the log), so the replay does too —
// that is what makes stateful policies like round-robin reproduce their
// recorded cursor exactly.
func ReplayRoutes(l *Log, name string) ([]RouteOutcome, *RouterSummary, error) {
	routers := map[workload.Priority]serve.Router{}
	for _, p := range []workload.Priority{workload.Low, workload.High} {
		rt, err := serve.NewRouter(name)
		if err != nil {
			return nil, nil, err
		}
		routers[p] = rt
	}
	outs := make([]RouteOutcome, 0, l.Routes())
	sum := &RouterSummary{Name: name}
	var eps []serve.Endpoint
	for i, d := range l.Decisions {
		if d.Kind != obs.DecRoute {
			continue
		}
		cands := d.Candidates(l.Cands)
		eps = eps[:0]
		for _, c := range cands {
			eps = append(eps, serve.Endpoint{
				Load:      int(c.Load),
				KVFrac:    c.KVFrac,
				CappedMHz: c.CappedMHz,
			})
		}
		req := workload.Request{
			ID:          d.ReqID,
			Class:       d.Class,
			Priority:    workload.Priority(d.Pri),
			Retry:       int(d.Retry),
			Session:     d.Session,
			PrefixGroup: d.Prefix,
		}
		pick := routers[req.Priority].Pick(eps, req)
		o := RouteOutcome{
			Seq:      uint64(i + 1),
			At:       d.At,
			Chosen:   int32(pick),
			Diverged: int32(pick) != d.Chosen,
		}
		if pick >= 0 {
			o.ChosenLoad = cands[pick].Load
			o.BestLoad = cands[pick].Load
			for _, c := range cands {
				if c.Load < o.BestLoad {
					o.BestLoad = c.Load
				}
			}
			o.ChosenKV = cands[pick].KVFrac
			sum.MeanExcessLoad += float64(o.ChosenLoad - o.BestLoad)
			sum.MeanChosenKV += o.ChosenKV
			if cands[pick].CappedMHz > 0 {
				sum.CappedPicks++
			}
		}
		if o.Diverged {
			sum.Diverged++
		}
		sum.Routes++
		outs = append(outs, o)
	}
	if sum.Routes > 0 {
		sum.MeanExcessLoad /= float64(sum.Routes)
		sum.MeanChosenKV /= float64(sum.Routes)
	}
	return outs, sum, nil
}
