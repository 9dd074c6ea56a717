package polca

import (
	"fmt"
	"sort"

	"polca/internal/obs"
)

// Rung is one threshold of a capping ladder: when row utilization reaches
// Trigger, the rung locks the low-priority pool to LowMHz and the
// high-priority pool to HighMHz (0 leaves that pool alone); it releases
// when utilization falls below Trigger - Margin. When several engaged
// rungs lock the same pool, the deepest (lowest) clock wins. The paper's
// §6.3 notes the two-threshold design "can be easily extended to support
// more priorities by adding thresholds accordingly" — a rung table is that
// extension, and POLCA itself is the three-rung table New builds.
type Rung struct {
	// Name prefixes the rung's trace reasons ("t2.lp" traces
	// "t2.lp.engage" and "t2.lp.release"); an unnamed rung traces bare
	// "engage" and "release".
	Name string
	// Trigger is the utilization (fraction of provisioned power) at which
	// the rung engages.
	Trigger float64
	// Margin is the hysteresis band below Trigger for release.
	Margin float64
	// LowMHz and HighMHz are the SM clocks the low- and high-priority
	// pools are locked to while the rung is engaged.
	LowMHz  float64
	HighMHz float64
	// Delay is how many hot ticks (utilization at or above Trigger) must
	// precede the one that engages, counted since utilization was last
	// below Trigger - Margin; a tick inside the hysteresis band neither
	// counts nor resets. POLCA's high-priority T2 rung uses 1: it fires
	// only if utilization is still at T2 on a later tick (Table 5).
	Delay int
}

// NewLadder validates and builds a rung-table policy named name (by
// default "Ladder(N rungs)").
func NewLadder(name string, rungs []Rung) (*Policy, error) {
	if name == "" {
		name = fmt.Sprintf("Ladder(%d rungs)", len(rungs))
	}
	spec := obs.PolicySpec{Kind: "ladder", Name: name}
	for _, r := range rungs {
		spec.Rungs = append(spec.Rungs, obs.RungSpec{
			Name: r.Name, Trigger: r.Trigger, Margin: r.Margin,
			LowMHz: r.LowMHz, HighMHz: r.HighMHz, Delay: r.Delay,
		})
	}
	return newPolicy(name, spec, rungs)
}

// newPolicy validates rungs and builds the policy that evaluates and
// traces them in descending trigger order (stable, so same-trigger rungs
// keep their table order).
func newPolicy(name string, spec obs.PolicySpec, rungs []Rung) (*Policy, error) {
	if len(rungs) == 0 {
		return nil, fmt.Errorf("polca: ladder with no rungs")
	}
	p := &Policy{name: name, spec: spec, rungs: make([]rungState, len(rungs))}
	for i, r := range rungs {
		switch {
		case r.Trigger <= 0 || r.Trigger > 1.2:
			return nil, fmt.Errorf("polca: rung %d: bad trigger %v", i, r.Trigger)
		case r.Margin <= 0 || r.Margin >= r.Trigger:
			return nil, fmt.Errorf("polca: rung %d: bad margin %v", i, r.Margin)
		case r.LowMHz < 0 || r.HighMHz < 0 || r.LowMHz == 0 && r.HighMHz == 0:
			return nil, fmt.Errorf("polca: rung %d: bad lock frequencies %v/%v", i, r.LowMHz, r.HighMHz)
		case r.Delay < 0:
			return nil, fmt.Errorf("polca: rung %d: negative delay", i)
		}
		s := rungState{Rung: r, engage: "engage", release: "release"}
		if r.Name != "" {
			s.engage, s.release = r.Name+".engage", r.Name+".release"
		}
		p.rungs[i] = s
	}
	sort.SliceStable(p.rungs, func(a, b int) bool { return p.rungs[a].Trigger > p.rungs[b].Trigger })
	return p, nil
}
