package replay

import (
	"fmt"
	"time"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
	"polca/internal/sim"
	"polca/internal/workload"
)

// fakeAct is the offline actuator: it holds the desired pool locks an
// alternate controller asserts, indexed by workload.Priority, as the row
// does, with no OOB pipeline behind it. Observer() is nil — every policy
// treats observation as optional — so replaying emits nothing.
type fakeAct [2]float64

func (a *fakeAct) SetPoolLock(p workload.Priority, mhz float64) { a[p] = mhz }
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

// ReplayCaps drives a controller over the recorded tick stream through a
// cluster.ControlLoop, the one the row ran: each tick's recorded epoch
// flags decide what the controller sees, and the deadman watchdog asserts
// the header's watchdog clocks. Route decisions are skipped. The returned
// outcomes align 1:1 with the log's tick decisions.
func ReplayCaps(l *Log, ctrl cluster.Controller) []TickOutcome {
	act := &fakeAct{}
	loop := cluster.NewControlLoop(ctrl, l.Meta.WatchdogEpochs, func(_ sim.Time, engage bool, _ int) {
		if engage {
			act.SetPoolLock(workload.Low, l.Meta.WatchdogLPMHz)
			act.SetPoolLock(workload.High, l.Meta.WatchdogHPMHz)
		}
	})
	out := make([]TickOutcome, 0, l.Ticks())
	for i := range l.Decisions {
		d := &l.Decisions[i]
		if d.Kind != obs.DecTick {
			continue
		}
		loop.Epoch(d.At, d, act)
		out = append(out, TickOutcome{
			Seq:      uint64(i + 1),
			At:       d.At,
			LPMHz:    act[workload.Low],
			HPMHz:    act[workload.High],
			Diverged: act[workload.Low] != d.LPDesiredMHz || act[workload.High] != d.HPDesiredMHz,
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
