package polca

import (
	"fmt"
	"slices"
	"sort"

	"polca/internal/obs"
)

// Rung is one threshold of a capping ladder; obs.RungSpec documents its
// fields, and the decision-log header records it as is. When several
// engaged rungs lock the same pool, the deepest (lowest) clock wins. The
// paper's §6.3 notes the two-threshold design "can be easily extended to
// support more priorities by adding thresholds accordingly" — a rung table
// is that extension, and POLCA itself is the three-rung table New builds.
type Rung = obs.RungSpec

// NewLadder validates and builds a rung-table policy named name (by
// default "Ladder(N rungs)").
func NewLadder(name string, rungs []Rung) (*Policy, error) {
	if name == "" {
		name = fmt.Sprintf("Ladder(%d rungs)", len(rungs))
	}
	spec := obs.PolicySpec{Kind: "ladder", Name: name, Rungs: slices.Clone(rungs)}
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
