package replay_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/faults"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/replay"
	"polca/internal/serve"
	"polca/internal/sim"
	"polca/internal/trace"
)

// selfReplayHorizon is each generated row's simulated length.
const selfReplayHorizon = 15 * time.Minute

// selfReplayFaults is the generator's fault menu: nothing, each fault
// class on its own inside the horizon, and a mixed chaos spec.
var selfReplayFaults = []string{
	"",
	"tdrop=0.15",
	"tdrop=0.05,tspike=0.02:0.5",
	"tstuck=3m+4m",
	"tblackout=4m+1m",
	"crash=2m+45",
	"miss=0.1",
	"oobburst=3m+5m",
	"kill=1@5m+4m",
	"drain=1@6m+3m",
	"slow=1:1.5",
	"tdrop=0.05,tspike=0.02:0.5,crash=5m+20,oobburst=8m+2m,kill=1@4m+2m,drain=1@10m+2m",
}

// genRow draws one short row from pick, which returns a value in [0, n):
// its shape, pool split, faults, hardening, policy, backend and load. The
// draws come in a fixed order, so a byte string read one choice per byte
// names a row (see FuzzSelfReplay).
func genRow(pick func(n int) int) (cfg cluster.RowConfig, ctrl cluster.Controller, load float64, desc string, err error) {
	cfg = cluster.Production()
	cfg.BaseServers = 2 + pick(10)
	cfg.AddedFraction = []float64{0, 0.30, 0.50}[pick(3)]
	cfg.LowPriorityFraction = []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1}[pick(7)]
	faultSpec := selfReplayFaults[pick(len(selfReplayFaults))]
	if cfg.Faults, err = faults.Parse(faultSpec); err != nil {
		return
	}
	cfg.WatchdogEpochs = []int{0, 1, 3, 5}[pick(4)]
	cfg.OOBRetryBudget = []int{0, 1, 8}[pick(3)]
	cfg.OOBRetryBackoff = []time.Duration{0, 4 * time.Second}[pick(2)]
	cfg.DropStaleOOB = pick(2) == 1
	policy := []string{"polca", "1tl", "1ta", "nocap"}[pick(4)]
	if ctrl, err = polca.NewNamed(policy, polca.DefaultConfig()); err != nil {
		return
	}
	guard := pick(2) == 1
	if guard {
		ctrl = polca.NewGuard(ctrl, polca.DefaultGuardConfig())
	}
	backend := "slot"
	if pick(3) == 0 {
		routers := serve.RouterNames()
		cfg.Serve = &serve.Config{Router: routers[pick(len(routers))]}
		cfg.ServeRetries = []int{0, 3}[pick(2)]
		cfg.ServeRetryBackoff = 2 * time.Second
		cfg.ServeClassShed = pick(2) == 1
		cfg.WatchdogDrain = pick(2) == 1
		backend = fmt.Sprintf("serve(%s retries=%d shed=%v drain=%v)", cfg.Serve.Router,
			cfg.ServeRetries, cfg.ServeClassShed, cfg.WatchdogDrain)
	}
	load = 0.7 + 0.05*float64(pick(11))
	cfg.Seed = int64(1 + pick(1000))
	desc = fmt.Sprintf("base=%d added=%v lp=%v faults=%q watchdog=%d retries=%d backoff=%v stale=%v policy=%s guard=%v %s load=%.2f seed=%d",
		cfg.BaseServers, cfg.AddedFraction, cfg.LowPriorityFraction, faultSpec, cfg.WatchdogEpochs,
		cfg.OOBRetryBudget, cfg.OOBRetryBackoff, cfg.DropStaleOOB, policy, guard, backend, load, cfg.Seed)
	return
}

// recordRow simulates one row with the decision recorder attached, at a
// flat load over selfReplayHorizon, and loads the written log.
func recordRow(cfg cluster.RowConfig, ctrl cluster.Controller, load float64) (*replay.Log, error) {
	pspec, gspec, err := polca.DescribeController(ctrl)
	if err != nil {
		return nil, err
	}
	rec := obs.NewDecisionRecorder()
	rec.UpdateMeta(func(m *obs.DecisionMeta) {
		m.Spec, m.Guard, m.Seed = pspec, gspec, cfg.Seed
	})
	eng := sim.New(cfg.Seed)
	eng.SetObserver(&obs.Observer{Decisions: rec})
	row, err := cluster.NewRow(eng, cfg, ctrl)
	if err != nil {
		return nil, err
	}
	rate := load * float64(cfg.Servers()) / cfg.Shape().MeanServiceSec
	rates := make([]float64, int(selfReplayHorizon/time.Minute))
	for i := range rates {
		rates[i] = rate
	}
	row.Run(trace.RatePlan{Bucket: time.Minute, Rates: rates, Gap: trace.FrontDoorGap})
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return replay.Load(&buf)
}

// checkSelfReplay generates one row from pick, records it and requires
// its log to replay against itself with no diverged tick and, in serve
// mode, no diverged router pick.
func checkSelfReplay(t *testing.T, pick func(n int) int) {
	t.Helper()
	cfg, ctrl, load, desc, err := genRow(pick)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	l, err := recordRow(cfg, ctrl, load)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	diverged, ticks, err := replay.SelfCheck(l)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	if ticks == 0 || diverged != 0 {
		t.Fatalf("%s: self replay diverged on %d of %d ticks", desc, diverged, ticks)
	}
	if l.Routes() == 0 {
		return
	}
	_, sum, err := replay.ReplayRoutes(l, l.Meta.Router)
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	if sum.Diverged != 0 {
		t.Fatalf("%s: router self replay diverged on %d of %d picks", desc, sum.Diverged, sum.Routes)
	}
}

// TestSelfReplayAcrossConfigs: self-replay fidelity is not a property of
// one recorded day. A seeded sample of short rows across row shapes, pool
// splits (empty pools included), faults, hardening, policies and both
// backends must each replay its own log with zero diverged decisions.
func TestSelfReplayAcrossConfigs(t *testing.T) {
	rows := 200
	if testing.Short() {
		rows = 40
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < rows; i++ {
		checkSelfReplay(t, rng.Intn)
	}
}

// FuzzSelfReplay drives genRow from the fuzz input, one byte per choice
// (a byte past the end reads 0), so the fuzzer searches the row space for
// a configuration whose log does not replay against itself.
func FuzzSelfReplay(f *testing.F) {
	// The third byte picks the pool split: index 0 leaves the low-priority
	// pool empty, index 6 the high-priority pool. Both rows run POLCA with
	// the watchdog at 5 epochs over a controller crash.
	f.Add([]byte{6, 1, 0, 5, 3, 2, 1, 1, 0, 1, 1})
	f.Add([]byte{6, 1, 6, 5, 3, 2, 1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, choices []byte) {
		checkSelfReplay(t, func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			v := int(choices[0]) % n
			choices = choices[1:]
			return v
		})
	})
}
