package cluster_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/sim"
	"polca/internal/workload"
)

// loopLog records every call the control loop makes, in order, each
// prefixed with the 1-based index of the epoch that made it.
type loopLog struct {
	epoch int
	calls []string
}

func (l *loopLog) add(format string, a ...any) {
	l.calls = append(l.calls, fmt.Sprintf("%d:", l.epoch)+fmt.Sprintf(format, a...))
}

// loopCtrl logs its callbacks; OnTelemetry asserts a low-pool lock, as
// every policy re-asserts its locks on each delivered reading.
type loopCtrl struct{ log *loopLog }

func (c loopCtrl) Name() string { return "loop" }
func (c loopCtrl) Reset()       { c.log.add("reset") }
func (c loopCtrl) OnTelemetry(_ sim.Time, util float64, act cluster.Actuator) {
	c.log.add("telemetry %.2f", util)
	act.SetPoolLock(workload.Low, 1275)
}

// lossAwareLoopCtrl is loopCtrl with the TelemetryLossAware extension.
type lossAwareLoopCtrl struct{ loopCtrl }

func (c lossAwareLoopCtrl) OnTelemetryLoss(sim.Time, cluster.Actuator) { c.log.add("loss") }

// loopAct logs every lock the controller or the watchdog hook sets.
type loopAct struct{ log *loopLog }

func (a loopAct) SetPoolLock(p workload.Priority, mhz float64) { a.log.add("lock %v %v", p, mhz) }
func (a loopAct) Observer() *obs.Observer                      { return nil }

// TestControlLoopEpochs drives the control loop alone through scripted
// epochs and checks every call it makes, in order: cold restarts, loss
// handling with and without the loss-aware extension, the deadman
// watchdog's engagement epoch and release order, and the no-flag default.
func TestControlLoopEpochs(t *testing.T) {
	var (
		down   = obs.Decision{Down: true}
		missed = obs.Decision{Missed: true}
		lost   = obs.Decision{Lost: true}
		none   = obs.Decision{}
	)
	delivered := func(u float64) obs.Decision { return obs.Decision{Delivered: true, Reading: u} }
	reset := func(d obs.Decision) obs.Decision { d.Reset = true; return d }
	engage := func(epoch, silent int) []string {
		return []string{
			fmt.Sprintf("%d:engage %d", epoch, silent),
			fmt.Sprintf("%d:lock low 1110", epoch),
			fmt.Sprintf("%d:lock high 1305", epoch),
		}
	}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name      string
		epochs    int
		lossAware bool
		ticks     []obs.Decision
		want      []string
		engaged   bool
	}{
		{
			name: "restart then missed tick", epochs: 2,
			ticks:   []obs.Decision{delivered(0.5), down, reset(missed)},
			want:    cat([]string{"1:telemetry 0.50", "1:lock low 1275", "3:reset"}, engage(3, 2)),
			engaged: true,
		},
		{
			name: "restart then delivery", epochs: 2,
			ticks: []obs.Decision{down, down, reset(delivered(0.7))},
			want:  cat(engage(2, 2), []string{"3:reset", "3:release", "3:telemetry 0.70", "3:lock low 1275"}),
		},
		{
			name: "lost sample, loss-aware controller", epochs: 1, lossAware: true,
			ticks: []obs.Decision{lost, lost},
			want:  []string{"1:loss", "2:loss"},
		},
		{
			name: "lost sample, loss-unaware controller", epochs: 1,
			ticks: []obs.Decision{lost},
			want:  engage(1, 1), engaged: true,
		},
		{
			name: "engages on exactly the K-th silent epoch", epochs: 3,
			ticks: []obs.Decision{down, missed, down, down, missed},
			want:  engage(3, 3), engaged: true,
		},
		{
			name: "contact restarts the silence count", epochs: 2,
			ticks: []obs.Decision{down, delivered(0.4), down},
			want:  []string{"2:telemetry 0.40", "2:lock low 1275"},
		},
		{
			name: "release before OnTelemetry", epochs: 1,
			ticks: []obs.Decision{down, delivered(0.9)},
			want:  cat(engage(1, 1), []string{"2:release", "2:telemetry 0.90", "2:lock low 1275"}),
		},
		{
			name: "loss-aware contact releases before OnTelemetryLoss", epochs: 1, lossAware: true,
			ticks: []obs.Decision{missed, lost},
			want:  cat(engage(1, 1), []string{"2:release", "2:loss"}),
		},
		{
			name: "WatchdogEpochs 0 never engages", epochs: 0,
			ticks: []obs.Decision{down, down, missed, lost, none, down},
		},
		{
			name: "a tick with no flag is silence", epochs: 1,
			ticks: []obs.Decision{none},
			want:  engage(1, 1), engaged: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &loopLog{}
			act := loopAct{log}
			var ctrl cluster.Controller = loopCtrl{log}
			if tc.lossAware {
				ctrl = lossAwareLoopCtrl{loopCtrl{log}}
			}
			var hook cluster.WatchdogHook
			if tc.epochs > 0 {
				hook = func(_ sim.Time, engage bool, silent int) {
					if !engage {
						log.add("release")
						return
					}
					log.add("engage %d", silent)
					act.SetPoolLock(workload.Low, 1110)
					act.SetPoolLock(workload.High, 1305)
				}
			}
			loop := cluster.NewControlLoop(ctrl, tc.epochs, hook)
			for i := range tc.ticks {
				log.epoch = i + 1
				d := tc.ticks[i]
				d.At = time.Duration(i+1) * 2 * time.Second
				loop.Epoch(d.At, &d, act)
			}
			if !reflect.DeepEqual(log.calls, tc.want) {
				t.Errorf("calls:\n got %q\nwant %q", log.calls, tc.want)
			}
			if got := loop.WatchdogEngaged(); got != tc.engaged {
				t.Errorf("WatchdogEngaged() = %v after the last epoch, want %v", got, tc.engaged)
			}
		})
	}
}

// TestEmptyPoolHoldsDesiredLock: a pool with no servers still holds the
// lock the policy asked for. The decision log records it on every tick
// and cap.request is traced once per change, not on every re-assertion.
func TestEmptyPoolHoldsDesiredLock(t *testing.T) {
	for _, lp := range []float64{0, 1} {
		cfg := testConfig()
		cfg.LowPriorityFraction = lp
		empty := workload.Low
		if lp == 1 {
			empty = workload.High
		}
		ctrl := &recordingCtrl{lockLP: 1110, lockHP: 1305}
		rec := obs.NewDecisionRecorder()
		tr := obs.NewTracer()
		eng := sim.New(cfg.Seed)
		eng.SetObserver(&obs.Observer{Decisions: rec, Tracer: tr})
		row := cluster.MustRow(eng, cfg, ctrl)
		if n := len(row.PoolAppliedLocks(empty)); n != 0 {
			t.Fatalf("lp=%v: %v pool has %d servers, want 0", lp, empty, n)
		}
		row.Run(flatPlan(cfg, 0.5, 5*time.Minute))
		decs, _ := rec.Decisions()
		for i, d := range decs {
			if d.Kind == obs.DecTick && (d.LPDesiredMHz != 1110 || d.HPDesiredMHz != 1305) {
				t.Fatalf("lp=%v: tick %d records locks %v/%v, want 1110/1305", lp, i+1, d.LPDesiredMHz, d.HPDesiredMHz)
			}
		}
		if requests := tr.CountKind(obs.KindCapRequest); requests != 2 {
			t.Errorf("lp=%v: %d cap.request events, want 2 (one per pool)", lp, requests)
		}
	}
}
