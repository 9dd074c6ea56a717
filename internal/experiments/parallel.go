package experiments

import (
	"fmt"
	"sync"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/stats"
	"polca/internal/trace"
)

// evalCall is one in-flight or completed row simulation. Callers wait on
// done before reading m/err, which gives the cache singleflight semantics:
// concurrent requests for the same spec run the simulation once and share
// the result.
type evalCall struct {
	done chan struct{}
	m    *cluster.Metrics
	err  error
}

var (
	evalMu    sync.Mutex
	evalCache = map[string]*evalCall{}
)

// refKey names one production reference series: sweep rows at one seed
// and horizon fit their arrivals to the same one.
type refKey struct {
	seed    int64
	horizon time.Duration
}

var (
	refMu    sync.Mutex
	refCache = map[refKey]stats.Series{}
)

// resetEvalCache drops all cached simulations and reference series; tests
// use it to force a cold-cache comparison between serial and parallel
// execution.
func resetEvalCache() {
	evalMu.Lock()
	evalCache = map[string]*evalCall{}
	evalMu.Unlock()
	refMu.Lock()
	refCache = map[refKey]stats.Series{}
	refMu.Unlock()
}

// productionArrivals is cluster.ProductionArrivals on the engine stream
// Rand("ref") of seed, with the reference series drawn once per (seed,
// horizon) and shared: at the fit's 5-minute buckets a day is 288 values.
func productionArrivals(cfg cluster.RowConfig, seed int64, horizon time.Duration) (trace.RatePlan, error) {
	k := refKey{seed, horizon}
	refMu.Lock()
	ref, ok := refCache[k]
	if !ok {
		ref = cluster.ProductionReference(horizon, sim.New(seed).Rand("ref"))
		refCache[k] = ref
	}
	refMu.Unlock()
	return cluster.FitProductionArrivals(cfg, ref)
}

// specLabel names a grid point for progress tracking and grid events. It
// names every field that splits the cache key, the POLCA config by its
// fields that differ from polca.DefaultConfig, so two grid points that
// simulate different rows never share a label (obs.Progress keys the
// in-flight points by it).
func specLabel(s rowSpec) string {
	l := fmt.Sprintf("%s added=%g int=%g lp=%g d=%d", s.policy, s.added, s.intensity, s.lpFrac, s.days)
	if s.pc != (polca.Config{}) {
		def := polca.DefaultConfig()
		for _, f := range []struct {
			name   string
			v, def float64
		}{
			{"t1", s.pc.T1, def.T1}, {"t2", s.pc.T2, def.T2}, {"margin", s.pc.UncapMargin, def.UncapMargin},
			{"lpbase", s.pc.LPBaseMHz, def.LPBaseMHz}, {"lpdeep", s.pc.LPDeepMHz, def.LPDeepMHz},
			{"hpcap", s.pc.HPCapMHz, def.HPCapMHz},
		} {
			if f.v != f.def {
				l += fmt.Sprintf(" %s=%g", f.name, f.v)
			}
		}
	}
	if s.oobLatency > 0 {
		l += " oob=" + s.oobLatency.String()
	}
	if s.hardened {
		l += " hardened"
	}
	if s.faults != "" {
		l += " faults=" + s.faults
	}
	if s.serveRouter != "" {
		l += " serve=" + s.serveRouter
	}
	if s.scenario != "" {
		l += " scen=" + s.scenario
	}
	return l
}

// runRow is the simulation simulateRowCached runs on a cache miss; tests
// wrap it to count the simulations in flight.
var runRow = runRowSpec

// simulateRowCached runs (or returns the cached result of) one row
// simulation, reporting whether the result came from the cache — waiters
// that piggyback on another caller's in-flight run count as cached, since
// they did not pay for a simulation. Concurrent callers with the same
// canonical spec block on the first caller's run.
func simulateRowCached(o Options, s rowSpec) (*cluster.Metrics, bool, error) {
	// The key deliberately covers only the inputs that shape the
	// simulation; observability fields must never split the cache, and
	// neither may a default left zero in one spec and spelled out in
	// another.
	s = s.canonical()
	key := fmt.Sprintf("%d/%d/%+v", o.Seed, o.RowServers, s)
	evalMu.Lock()
	if c, ok := evalCache[key]; ok {
		evalMu.Unlock()
		<-c.done
		return c.m, true, c.err
	}
	c := &evalCall{done: make(chan struct{})}
	evalCache[key] = c
	evalMu.Unlock()

	// Only the simulation holds a token; cache waiters above hold none, so
	// at most Parallel rows simulate at once across the whole pass.
	o.tokens <- struct{}{}
	c.m, c.err = runRow(o, s)
	<-o.tokens
	if c.err != nil {
		// Keep failures out of the cache so a later attempt can retry.
		evalMu.Lock()
		delete(evalCache, key)
		evalMu.Unlock()
	}
	close(c.done)
	return c.m, false, c.err
}

// simulateRow is simulateRowCached for callers that don't care about cache
// provenance.
func simulateRow(o Options, s rowSpec) (*cluster.Metrics, error) {
	m, _, err := simulateRowCached(o, s)
	return m, err
}

// simulateTracked wraps one grid-point simulation with progress tracking,
// sweep counters, and grid.start/grid.done trace events. All of it is
// wall-clock observability metadata — nothing here can reach simulation
// state.
func simulateTracked(o Options, s rowSpec) (*cluster.Metrics, error) {
	if o.Obs == nil && o.Progress == nil {
		return simulateRow(o, s)
	}
	label := specLabel(s)
	started := time.Now()
	o.Progress.Start(label)
	o.Obs.Emit(obs.Event{Kind: obs.KindGridStart, Server: -1, Pool: obs.PoolNone, Label: label})
	m, cached, err := simulateRowCached(o, s)
	elapsed := time.Since(started)
	o.Progress.Done(label, cached)
	o.Obs.Counter("sweep_points_total").Inc()
	if cached {
		o.Obs.Counter("sweep_cache_hits_total").Inc()
	}
	o.Obs.Emit(obs.Event{
		Kind: obs.KindGridDone, Server: -1, Pool: obs.PoolNone,
		Label: label, Value: elapsed.Seconds(),
	})
	return m, err
}

// simulateRows runs one simulation per spec on a worker pool bounded by
// o.Parallel (default GOMAXPROCS) and returns metrics in spec order, so
// sweep results are independent of completion order; one worker runs the
// specs in order. Duplicate specs — within the batch or across
// concurrently running experiments — are deduplicated by simulateRow's
// singleflight cache.
func simulateRows(o Options, specs []rowSpec) ([]*cluster.Metrics, error) {
	o.Progress.AddTotal(len(specs))
	out := make([]*cluster.Metrics, len(specs))
	workers := min(o.workers(), len(specs))
	errs := make([]error, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = simulateTracked(o, specs[i])
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
