package cluster

import (
	"math"
	"testing"
	"time"

	"polca/internal/faults"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/trace"
	"polca/internal/workload"
)

// stepCtrl caps the low-priority pool above 80% utilization and the high
// one above 90%, and uncaps both below 70%: enough lock traffic to land
// commands on busy nodes mid-phase.
type stepCtrl struct{}

func (stepCtrl) Name() string { return "step" }
func (stepCtrl) OnTelemetry(now sim.Time, util float64, act Actuator) {
	switch {
	case util >= 0.9:
		act.SetPoolLock(workload.Low, 1110)
		act.SetPoolLock(workload.High, 1305)
	case util >= 0.8:
		act.SetPoolLock(workload.Low, 1110)
	case util < 0.7:
		act.SetPoolLock(workload.Low, 0)
		act.SetPoolLock(workload.High, 0)
	}
}

// cacheProbe compares the row's power caches, and a slot row's admission
// gates, with fresh reads: every 7 ms (off the 0.25 s sub-sample grid, so
// inside phase segments) and at the last nanosecond before and the first
// at every node horizon it sees.
type cacheProbe struct {
	t          *testing.T
	row        *Row
	armed      map[sim.Time]bool
	wasDead    []bool
	probes     int
	hits       int // node reads the cache answered
	edges      int // probes at or just before a horizon
	revivals   int
	gateHits   int // pool probes that found a valid cached gate
	gateMisses int // pool probes that found none
	failed     bool
}

func (p *cacheProbe) check(now sim.Time) {
	if p.failed {
		return
	}
	r := p.row
	p.probes++
	var sum float64
	for _, n := range r.nodes {
		if now < n.powUntil {
			p.hits++
		}
		w, busy := r.nodePower(n, now)
		freshW, freshBusy := 0.0, false
		if !n.dead {
			gpuW, b, _ := r.be.load(n, now)
			freshW, freshBusy = n.srv.PowerFromGPUs(gpuW*n.gpuScale), b
		}
		if w != freshW || busy != freshBusy {
			p.failed = true
			p.t.Errorf("at %v node %d (dead %v): nodePower = %v W busy %v, fresh read %v W busy %v",
				now, n.idx, n.dead, w, busy, freshW, freshBusy)
			return
		}
		sum += freshW
		if p.wasDead[n.idx] && !n.dead {
			p.revivals++
		}
		p.wasDead[n.idx] = n.dead
		if u := n.powUntil; u > now && u != math.MaxInt64 && !p.armed[u] {
			p.armed[u] = true
			r.eng.At(u-1, p.edge)
			r.eng.At(u, p.edge)
		}
	}
	if got, want := r.instantUtilization(now), sum/r.metrics.Provisioned; got != want {
		p.failed = true
		p.t.Errorf("at %v: instantUtilization = %v, fresh in-order sum %v", now, got, want)
		return
	}
	s, ok := r.be.(*slotBackend)
	if !ok {
		return
	}
	for pri, g := range r.gate {
		if g.ok && g.bucket == r.arrivalPlan.BucketAt(now) {
			p.gateHits++
		} else {
			p.gateMisses++
		}
		got := s.admitLimit(workload.Priority(pri), now)
		if fresh := s.gateLimit(workload.Priority(pri), now); got != fresh {
			p.failed = true
			p.t.Errorf("at %v: pool %d's admission gate = %d, fresh %d", now, pri, got, fresh)
			return
		}
	}
}

// checkCounts requires node cache hits and horizon probes, and on a slot
// row probes that found a cached admission gate and probes that did not.
func (p *cacheProbe) checkCounts(t *testing.T, slot bool) {
	t.Helper()
	if p.hits == 0 || p.edges == 0 {
		t.Errorf("cache hits %d, horizon probes %d: want both", p.hits, p.edges)
	}
	if slot && (p.gateHits == 0 || p.gateMisses == 0) {
		t.Errorf("gate hits %d, gate misses %d: want both", p.gateHits, p.gateMisses)
	}
	t.Logf("%d probes (%d at horizons), %d cached node reads, gates %d cached / %d not",
		p.probes, p.edges, p.hits, p.gateHits, p.gateMisses)
}

func (p *cacheProbe) edge(now sim.Time) {
	p.edges++
	p.check(now)
}

// runProbed runs the row with a cacheProbe armed on a plan of 1-minute
// buckets whose load steps through 60 levels from 0.4 to 1.58 times the
// given busy fraction, scrambled (37 is coprime to 60). The rate changes
// at every bucket edge, and at the low levels the slot gates sit below
// the pool size, where a landed lock can move them.
func runProbed(t *testing.T, cfg RowConfig, ctrl Controller, busy float64, horizon time.Duration) (*Metrics, *cacheProbe) {
	t.Helper()
	eng := sim.New(cfg.Seed)
	row, err := NewRow(eng, cfg, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	p := &cacheProbe{t: t, row: row, armed: map[sim.Time]bool{}, wasDead: make([]bool, len(row.nodes))}
	eng.Every(7*time.Millisecond, p.check)
	rate := busy * float64(cfg.Servers()) / cfg.Shape().MeanServiceSec
	rates := make([]float64, int(horizon/time.Minute))
	for i := range rates {
		rates[i] = rate * (0.4 + 1.2*float64(i*37%60)/60)
	}
	m := row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})
	return m, p
}

func probeConfig(t *testing.T, spec string) RowConfig {
	t.Helper()
	cfg := Production()
	cfg.BaseServers = 8
	cfg.AddedFraction = 0.30
	cfg.BrakeUtil = 0.90
	cfg.BrakeReleaseUtil = 0.80
	f, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = f
	return cfg
}

// TestPowerCachesMatchFreshReads is the oracle for nodePower's and
// instantUtilization's caches: at every probe, each node's cached draw and
// busy flag and the row's cached utilization must equal a fresh read bit
// for bit. It covers a slot row that brakes and lands locks mid-phase, a
// slot row under the make chaos faults (node death and revival, drains,
// stragglers, OOB failures) and a serve row with node deaths and locks
// landing mid-iteration.
func TestPowerCachesMatchFreshReads(t *testing.T) {
	t.Run("slot-brake", func(t *testing.T) {
		m, p := runProbed(t, probeConfig(t, ""), stepCtrl{}, 1.0, time.Hour)
		if m.BrakeEvents == 0 || m.LockCommands == 0 {
			t.Errorf("brakes %d, lock commands %d: want both", m.BrakeEvents, m.LockCommands)
		}
		p.checkCounts(t, true)
	})
	t.Run("slot-chaos", func(t *testing.T) {
		cfg := probeConfig(t, "tdrop=0.05,tspike=0.02:0.5,tstuck=50m+5m,crash=30m+20,"+
			"oobburst=55m+30m,kill=2@40m+10m,slow=2:1.5,drain=2@80m+5m")
		cfg.WatchdogEpochs = 5
		cfg.OOBRetryBudget = 8
		cfg.OOBRetryBackoff = 4 * time.Second
		cfg.DropStaleOOB = true
		m, p := runProbed(t, cfg, stepCtrl{}, 0.95, 2*time.Hour)
		if m.NodeDeaths == 0 || p.revivals == 0 || m.NodeDrains == 0 || m.FailedCommands == 0 {
			t.Errorf("deaths %d, revivals %d, drains %d, failed commands %d: want all",
				m.NodeDeaths, p.revivals, m.NodeDrains, m.FailedCommands)
		}
		p.checkCounts(t, true)
	})
	t.Run("serve", func(t *testing.T) {
		cfg := probeConfig(t, "kill=2@20m+10m")
		cfg.Serve = &serve.Config{}
		m, p := runProbed(t, cfg, stepCtrl{}, 0.95, time.Hour)
		if m.NodeDeaths == 0 || p.revivals == 0 || m.LockCommands == 0 {
			t.Errorf("deaths %d, revivals %d, lock commands %d: want all",
				m.NodeDeaths, p.revivals, m.LockCommands)
		}
		p.checkCounts(t, false)
	})
}
