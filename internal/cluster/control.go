package cluster

import (
	"polca/internal/obs"
	"polca/internal/sim"
)

// WatchdogHook carries the deadman watchdog's effects: engage true on the
// silent epoch that engages it (silent = consecutive silent epochs), before
// anything else that epoch; engage false on the contact that releases it,
// before the controller's callback, so the locks the controller re-asserts
// land after the release.
type WatchdogHook func(now sim.Time, engage bool, silent int)

// ControlLoop is the controller half of a telemetry epoch, run by the row
// on the flags its fault model sets and by replay on the flags the
// decision log recorded, so a self-replay runs the same code on the same
// inputs. Per epoch, Reset restarts a Restartable controller cold first;
// Down and Missed are silence; Lost is contact plus OnTelemetryLoss for a
// TelemetryLossAware controller and silence for any other; Delivered is
// contact plus OnTelemetry(Reading); a record with no flag is silence.
// WatchdogEpochs consecutive silent epochs engage the deadman watchdog (0
// never does), and the next contact releases it.
type ControlLoop struct {
	ctrl      Controller
	restart   Restartable
	lossAware TelemetryLossAware
	epochs    int
	hook      WatchdogHook
	silent    int
}

// NewControlLoop builds the loop for ctrl; hook may be nil only when
// watchdogEpochs is 0.
func NewControlLoop(ctrl Controller, watchdogEpochs int, hook WatchdogHook) ControlLoop {
	l := ControlLoop{ctrl: ctrl, epochs: watchdogEpochs, hook: hook}
	l.restart, _ = ctrl.(Restartable)
	l.lossAware, _ = ctrl.(TelemetryLossAware)
	return l
}

// WatchdogEngaged reports whether the deadman watchdog holds the row.
func (l *ControlLoop) WatchdogEngaged() bool {
	return l.epochs > 0 && l.silent >= l.epochs
}

// Epoch runs the telemetry epoch d's flags describe.
func (l *ControlLoop) Epoch(now sim.Time, d *obs.Decision, act Actuator) {
	if d.Reset && l.restart != nil {
		l.restart.Reset()
	}
	switch {
	case d.Down, d.Missed:
		l.silence(now)
	case d.Lost:
		if l.lossAware == nil {
			l.silence(now)
			return
		}
		// The controller is alive and knows the sample is missing: that is
		// contact, not silence.
		l.contact(now)
		l.lossAware.OnTelemetryLoss(now, act)
	case d.Delivered:
		l.contact(now)
		l.ctrl.OnTelemetry(now, d.Reading, act)
	default:
		l.silence(now)
	}
}

func (l *ControlLoop) contact(now sim.Time) {
	engaged := l.WatchdogEngaged()
	l.silent = 0
	if engaged {
		l.hook(now, false, 0)
	}
}

func (l *ControlLoop) silence(now sim.Time) {
	l.silent++
	if l.silent == l.epochs {
		l.hook(now, true, l.silent)
	}
}
