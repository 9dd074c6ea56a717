package polca_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"polca/internal/cluster"
	"polca/internal/obs"
	"polca/internal/polca"
)

func TestSpecRoundTrip(t *testing.T) {
	ladder, err := polca.NewLadder("3-rung", []polca.Rung{
		{Name: "lp", Trigger: 0.76, Margin: 0.05, LowMHz: 1335},
		{Trigger: 0.89, Margin: 0.05, LowMHz: 1050, HighMHz: 1305, Delay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrls := []cluster.Controller{
		polca.New(polca.DefaultConfig()),
		polca.NewSingleThresholdLowPri(),
		polca.NewSingleThresholdAll(),
		polca.NoCap{},
		ladder,
		polca.NewGuard(polca.New(polca.DefaultConfig()), polca.DefaultGuardConfig()),
		polca.NewGuard(polca.NewSingleThresholdAll(), polca.DefaultGuardConfig()),
	}
	for _, ctrl := range ctrls {
		spec, gs, err := polca.DescribeController(ctrl)
		if err != nil {
			t.Fatalf("%s: describe: %v", ctrl.Name(), err)
		}
		rebuilt, err := polca.ControllerFromSpec(spec, gs)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", ctrl.Name(), err)
		}
		if rebuilt.Name() != ctrl.Name() {
			t.Fatalf("rebuilt name %q, want %q", rebuilt.Name(), ctrl.Name())
		}
		spec2, gs2, err := polca.DescribeController(rebuilt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("%s: spec did not round-trip:\n got %+v\nwant %+v", ctrl.Name(), spec2, spec)
		}
		if (gs == nil) != (gs2 == nil) {
			t.Fatalf("%s: guard presence did not round-trip", ctrl.Name())
		}
		if gs != nil && *gs != *gs2 {
			t.Fatalf("%s: guard spec did not round-trip:\n got %+v\nwant %+v", ctrl.Name(), *gs2, *gs)
		}
	}

	// The decision-log headers of the CLI's policies keep their shape.
	for _, c := range []struct {
		ctrl cluster.Controller
		want string
	}{
		{polca.New(polca.DefaultConfig()), `{"kind":"polca","t1":0.8,"t2":0.89,"uncap_margin":0.05,"lp_base_mhz":1275,"lp_deep_mhz":1110,"hp_cap_mhz":1305}`},
		{polca.NewSingleThresholdLowPri(), `{"kind":"1t","threshold":0.89,"margin":0.05,"lock_mhz":1110}`},
		{polca.NewSingleThresholdAll(), `{"kind":"1t","threshold":0.89,"margin":0.05,"lock_mhz":1110,"all":true}`},
		{polca.NoCap{}, `{"kind":"nocap"}`},
	} {
		spec, _, err := polca.DescribeController(c.ctrl)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := json.Marshal(spec); string(b) != c.want {
			t.Errorf("%s header spec = %s, want %s", c.ctrl.Name(), b, c.want)
		}
	}

	if _, err := polca.ControllerFromSpec(obs.PolicySpec{Kind: "zorp"}, nil); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if _, err := polca.ControllerFromSpec(obs.PolicySpec{Kind: "polca"}, nil); err == nil {
		t.Fatal("invalid polca config should fail")
	}
	if _, err := polca.ControllerFromSpec(obs.PolicySpec{Kind: "1t", Threshold: 0.89, Margin: 0.05}, nil); err == nil {
		t.Fatal("1t spec without a clock should fail")
	}
}

func TestSpecRejectsOldLadderShape(t *testing.T) {
	// Ladder headers once carried one pool and one clock per rung; read
	// into today's RungSpec they lock nothing, which must not load as a
	// rung that never caps.
	var spec obs.PolicySpec
	old := `{"kind":"ladder","name":"old","rungs":[{"trigger":0.8,"margin":0.05,"pool":0,"lock_mhz":1275}]}`
	if err := json.Unmarshal([]byte(old), &spec); err != nil {
		t.Fatal(err)
	}
	if ctrl, err := polca.ControllerFromSpec(spec, nil); err == nil {
		t.Fatalf("old-shape ladder header loaded as %s", ctrl.Name())
	}
}

func TestStageReporters(t *testing.T) {
	p := polca.New(polca.DefaultConfig())
	act := newFake()
	if p.Stage() != 0 {
		t.Fatal("cold policy stage should be 0")
	}
	for want, u := range []float64{0.82, 0.90, 0.90} {
		tick(p, act, u)
		if p.Stage() != want+1 {
			t.Fatalf("after %.2f: stage %d, want %d", u, p.Stage(), want+1)
		}
	}

	s := polca.NewSingleThresholdAll()
	if s.Stage() != 0 {
		t.Fatal("cold 1t stage should be 0")
	}
	tick(s, newFake(), 0.90)
	if s.Stage() != 1 {
		t.Fatal("engaged 1t stage should be 1")
	}

	l, err := polca.NewLadder("l", []polca.Rung{
		{Trigger: 0.70, Margin: 0.05, LowMHz: 1300},
		{Trigger: 0.80, Margin: 0.05, LowMHz: 1200},
		{Trigger: 0.90, Margin: 0.05, LowMHz: 1100},
	})
	if err != nil {
		t.Fatal(err)
	}
	tick(l, newFake(), 0.85)
	if l.Stage() != 2 {
		t.Fatal("ladder stage should count engaged rungs")
	}

	g := polca.NewGuard(p, polca.DefaultGuardConfig())
	if g.Stage() != 3 {
		t.Fatal("guard stage should delegate to inner")
	}
	if polca.NoCap.Stage(polca.NoCap{}) != 0 {
		t.Fatal("nocap stage should be 0")
	}
}
