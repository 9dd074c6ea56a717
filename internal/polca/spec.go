package polca

import (
	"fmt"

	"polca/internal/cluster"
	"polca/internal/obs"
)

// Stage implements cluster.StageReporter: the number of engaged rungs.
// For POLCA that is 0 = uncapped, 1 = T1, 2 = T2 low-priority, 3 = T2 both
// pools; a 1-Thresh baseline reports 0 or 1. observeState writes the same
// value to the ctrl.stage TSDB series.
func (p *Policy) Stage() int {
	n := 0
	for i := range p.rungs {
		if p.rungs[i].engaged {
			n++
		}
	}
	return n
}

// Stage implements cluster.StageReporter (always 0).
func (NoCap) Stage() int { return 0 }

// Stage implements cluster.StageReporter: the wrapped policy's stage (the
// guard itself adds no capping stages; its fail-safe is reported
// separately through FailSafeEngaged).
func (g *Guard) Stage() int {
	if sr, ok := g.inner.(cluster.StageReporter); ok {
		return sr.Stage()
	}
	return 0
}

// DescribeController renders a controller's full configuration as the
// obs.PolicySpec the decision-log header carries, so an offline replay can
// rebuild the deployed policy (and variants of it) without the original
// command line. A Guard wrapper is unwrapped into the returned GuardSpec.
// Controllers outside this package's families are not describable.
func DescribeController(ctrl cluster.Controller) (obs.PolicySpec, *obs.GuardSpec, error) {
	var gs *obs.GuardSpec
	if g, ok := ctrl.(*Guard); ok {
		spec := obs.GuardSpec(g.cfg)
		gs = &spec
		ctrl = g.inner
	}
	switch c := ctrl.(type) {
	case *Policy:
		return c.spec, gs, nil
	case NoCap:
		return obs.PolicySpec{Kind: "nocap"}, gs, nil
	}
	return obs.PolicySpec{}, nil, fmt.Errorf("polca: cannot describe controller %T", ctrl)
}

// ControllerFromSpec is the inverse of DescribeController: it rebuilds a
// fresh (cold-state) controller from a decision-log header, wrapping it in
// a Guard when guard is non-nil. Round-tripping through the two functions
// is locked by TestSpecRoundTrip.
func ControllerFromSpec(spec obs.PolicySpec, guard *obs.GuardSpec) (cluster.Controller, error) {
	var ctrl cluster.Controller = NoCap{}
	if spec.Kind != "nocap" {
		p, err := policyFromSpec(spec)
		if err != nil {
			return nil, err
		}
		ctrl = p
	}
	return Guarded(ctrl, guard)
}

// Guarded wraps ctrl in a Guard built from a decision-log guard spec, so a
// replayed alternate faces the telemetry faults the deployed run did. A
// nil spec returns ctrl unchanged.
func Guarded(ctrl cluster.Controller, guard *obs.GuardSpec) (cluster.Controller, error) {
	if guard == nil {
		return ctrl, nil
	}
	cfg := GuardConfig(*guard)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewGuard(ctrl, cfg), nil
}

// policyFromSpec maps a threshold policy's kind to its constructor.
func policyFromSpec(spec obs.PolicySpec) (*Policy, error) {
	switch spec.Kind {
	case "polca":
		return newPOLCA(Config{
			T1: spec.T1, T2: spec.T2, UncapMargin: spec.UncapMargin,
			LPBaseMHz: spec.LPBaseMHz, LPDeepMHz: spec.LPDeepMHz, HPCapMHz: spec.HPCapMHz,
		})
	case "1t":
		return newSingleThreshold(spec.Threshold, spec.Margin, spec.LockMHz, spec.All)
	case "ladder":
		return NewLadder(spec.Name, spec.Rungs)
	}
	return nil, fmt.Errorf("polca: unknown policy kind %q", spec.Kind)
}

var (
	_ cluster.StageReporter = (*Policy)(nil)
	_ cluster.StageReporter = NoCap{}
	_ cluster.StageReporter = (*Guard)(nil)
)
