package experiments

import (
	"fmt"
	"math/rand"
	"sort"
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

// gapBlock is the gap memo's block length, 32 KiB of gaps.
const gapBlock = 4096

// gapMemo is one seed's sequence of unit inter-arrival gaps: the
// trace.FrontDoorGap draws that a row's arrival stream, Rand("arrivals")
// of an engine on the seed, makes, in order. RatePlan.NextAfter draws a
// gap before it reads the plan, so every row at the seed draws a prefix
// of this one sequence. Blocks never change once appended, so a reader
// holds gapMu only to extend the memo, never to read it.
type gapMemo struct {
	rng    *rand.Rand // the stream, positioned after the last block
	blocks []*[gapBlock]float64
}

var (
	gapMu    sync.Mutex
	gapCache = map[int64]*gapMemo{}
)

// extend returns the memo's blocks, drawing new ones until there are at
// least n.
func (m *gapMemo) extend(n int) []*[gapBlock]float64 {
	gapMu.Lock()
	defer gapMu.Unlock()
	for len(m.blocks) < n {
		b := new([gapBlock]float64)
		for i := range b {
			b[i] = trace.FrontDoorGap(m.rng)
		}
		m.blocks = append(m.blocks, b)
	}
	return m.blocks
}

// gapCursor reads one run's gaps off a seed's memo, from the first.
type gapCursor struct {
	memo   *gapMemo
	blocks []*[gapBlock]float64 // the memo's blocks at this cursor's last extend
	n      int                  // gaps read
}

// gap is a RatePlan.Gap: the run's next memoized draw. It leaves rng, the
// row's own arrival stream, undrawn; nothing else reads that stream.
func (c *gapCursor) gap(*rand.Rand) float64 {
	b := c.n / gapBlock
	if b == len(c.blocks) {
		c.blocks = c.memo.extend(b + 1)
	}
	g := c.blocks[b][c.n%gapBlock]
	c.n++
	return g
}

// resetEvalCache drops all cached simulations, reference series and gap
// memos; tests use it to force a cold-cache comparison between serial and
// parallel execution.
func resetEvalCache() {
	evalMu.Lock()
	evalCache = map[string]*evalCall{}
	evalMu.Unlock()
	refMu.Lock()
	refCache = map[refKey]stats.Series{}
	refMu.Unlock()
	gapMu.Lock()
	gapCache = map[int64]*gapMemo{}
	gapMu.Unlock()
}

// productionRun is the engine and arrival plan every trace-fitted row of
// the pass runs on; tests swap in one that shares nothing to check
// sharedProductionRun against it.
var productionRun = sharedProductionRun

// sharedProductionRun returns a new engine on cfg.Seed and, for one
// Row.Run on it, the row's cluster.ProductionArrivals plan over horizon.
// Rows share what that plan draws: the reference series on the stream
// Rand("ref"), drawn once per (seed, horizon) (at the fit's 5-minute
// buckets a day is 288 values), and the seed's gap memo, which the plan's
// Gap reads through a cursor of its own. One seed builds the engine and
// keys the memo, so the memo holds the draws the engine's arrival stream
// would make. The plan serves one run only: a copy of it, RatePlan.Scale's
// too, shares its cursor.
func sharedProductionRun(cfg cluster.RowConfig, horizon time.Duration) (*sim.Engine, trace.RatePlan, error) {
	k := refKey{cfg.Seed, horizon}
	refMu.Lock()
	ref, ok := refCache[k]
	if !ok {
		ref = cluster.ProductionReference(horizon, sim.New(cfg.Seed).Rand("ref"))
		refCache[k] = ref
	}
	refMu.Unlock()
	plan, err := cluster.FitProductionArrivals(cfg, ref)
	if err != nil {
		return nil, trace.RatePlan{}, err
	}
	eng := sim.New(cfg.Seed)
	gapMu.Lock()
	m := gapCache[cfg.Seed]
	if m == nil {
		m = &gapMemo{rng: eng.Rand("arrivals")}
		gapCache[cfg.Seed] = m
	}
	gapMu.Unlock()
	plan.Gap = (&gapCursor{memo: m}).gap
	return eng, plan, nil
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
	if c.err == nil {
		// Every reader takes percentiles (sortedLatencies), so the row's
		// series are sorted once, here, before any reader can see them.
		for _, lat := range c.m.LatencySec {
			sort.Float64s(lat)
		}
	}
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
	var simulated time.Duration
	if !cached {
		simulated = horizonFromDays(s.days)
	}
	o.Progress.Done(label, cached, simulated)
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
