package replay

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/gpu"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/workload"
)

// fakeAct is the offline actuator: it holds the desired pool locks an
// alternate controller asserts, exactly as the row's desired-lock state
// would, with no OOB pipeline behind it. Observer() is nil — every policy
// treats observation as optional — so replaying emits nothing.
type fakeAct struct {
	locks [2]float64
	spec  gpu.Spec
}

func (a *fakeAct) SetPoolLock(p workload.Priority, mhz float64) { a.locks[p] = mhz }
func (a *fakeAct) PoolLock(p workload.Priority) float64         { return a.locks[p] }
func (a *fakeAct) GPUSpec() gpu.Spec                            { return a.spec }
func (a *fakeAct) Observer() *obs.Observer                      { return nil }

var _ cluster.Actuator = (*fakeAct)(nil)

// TickOutcome is what an alternate cap policy decided on one recorded tick.
type TickOutcome struct {
	// Seq is the tick's seq in the log: its 1-based position among the
	// log's decisions.
	Seq   uint64
	At    time.Duration
	LPMHz float64 // desired low-pool lock after the tick (0 = uncap)
	HPMHz float64
	// Diverged marks the tick's locks differing from the recorded run's.
	Diverged bool
}

// ReplayCaps drives a controller over the recorded tick stream, mirroring
// the row's epoch semantics exactly: crashed and missed epochs are
// controller silence (counting toward the deadman watchdog), recovery
// resets restartable controllers cold, lost readings go to loss-aware
// controllers as OnTelemetryLoss (contact) and count as silence otherwise,
// and delivered readings reach OnTelemetry. Route decisions are skipped.
// The returned outcomes align 1:1 with the log's tick decisions.
func ReplayCaps(l *Log, ctrl cluster.Controller) []TickOutcome {
	act := &fakeAct{spec: gpu.A100SXM80GB()}
	silent := 0
	wdEngaged := false
	contact := func() {
		silent = 0
		wdEngaged = false
	}
	silentEpoch := func() {
		silent++
		if l.Meta.WatchdogEpochs <= 0 || wdEngaged || silent < l.Meta.WatchdogEpochs {
			return
		}
		wdEngaged = true
		act.SetPoolLock(workload.Low, l.Meta.WatchdogLPMHz)
		act.SetPoolLock(workload.High, l.Meta.WatchdogHPMHz)
	}
	out := make([]TickOutcome, 0, l.Ticks())
	for i, d := range l.Decisions {
		if d.Kind != obs.DecTick {
			continue
		}
		now := d.At // sim.Time is a time.Duration alias
		if d.Reset {
			if rs, ok := ctrl.(cluster.Restartable); ok {
				rs.Reset()
			}
		}
		switch {
		case d.Down, d.Missed:
			silentEpoch()
		case d.Lost:
			if la, aware := ctrl.(cluster.TelemetryLossAware); aware {
				contact()
				la.OnTelemetryLoss(now, act)
			} else {
				silentEpoch()
			}
		case d.Delivered:
			contact()
			ctrl.OnTelemetry(now, d.Reading, act)
		default:
			// A tick with no epoch flag cannot be produced by the recorder;
			// treat it as silence rather than inventing a reading.
			silentEpoch()
		}
		out = append(out, TickOutcome{
			Seq:      uint64(i + 1),
			At:       d.At,
			LPMHz:    act.locks[workload.Low],
			HPMHz:    act.locks[workload.High],
			Diverged: act.locks[workload.Low] != d.LPDesiredMHz || act.locks[workload.High] != d.HPDesiredMHz,
		})
	}
	return out
}

// DeployedController rebuilds the controller the log's run deployed, from
// the header's policy spec (guard-wrapped when the run guarded).
func DeployedController(l *Log) (cluster.Controller, error) {
	return polca.ControllerFromSpec(l.Meta.Spec, l.Meta.Guard)
}

// SelfCheck replays the log against its own recorded configuration and
// reports how many tick decisions diverged. Zero is the replay-fidelity
// contract: a decision log carries everything the deployed policy acted
// on, so re-running it must reproduce the run's every action.
func SelfCheck(l *Log) (diverged, ticks int, err error) {
	ctrl, err := DeployedController(l)
	if err != nil {
		return 0, 0, fmt.Errorf("replay: rebuild deployed policy: %w", err)
	}
	outs := ReplayCaps(l, ctrl)
	for _, o := range outs {
		if o.Diverged {
			diverged++
		}
	}
	return diverged, len(outs), nil
}
