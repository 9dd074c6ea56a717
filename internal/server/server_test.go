package server

import (
	"testing"

	"polca/internal/gpu"
)

func dgx() Spec { return DGXA100(gpu.A100SXM80GB()) }

func TestSpecValidates(t *testing.T) {
	if err := dgx().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := dgx()
	bad.GPUCount = 0
	if bad.Validate() == nil {
		t.Error("zero GPUs should fail")
	}
	bad = dgx()
	bad.Components[0].PeakWatts = bad.Components[0].ProvisionedWatts + 1
	if bad.Validate() == nil {
		t.Error("peak above provisioned should fail")
	}
	bad = dgx()
	bad.ProvisionedWatts = 1000
	if bad.Validate() == nil {
		t.Error("overcommitted envelope should fail")
	}
}

func TestFigure3Breakdown(t *testing.T) {
	s := dgx()
	// Paper: ~50% of provisioned power is GPUs.
	gpuShare := s.GPUProvisionedWatts() / s.ProvisionedWatts
	if gpuShare < 0.45 || gpuShare > 0.55 {
		t.Errorf("GPU provisioned share = %.2f, want ~0.5 (Figure 3)", gpuShare)
	}
	// Paper §5: fans are nearly 25% of server power.
	var fans float64
	for _, c := range s.Components {
		if c.Name == "fans" {
			fans = c.ProvisionedWatts
		}
	}
	if share := fans / s.ProvisionedWatts; share < 0.2 || share > 0.3 {
		t.Errorf("fan share = %.2f, want ~0.25 (Figure 3)", share)
	}
}

func TestRatedPowerIs6500(t *testing.T) {
	if w := dgx().ProvisionedWatts; w != 6500 {
		t.Errorf("DGX-A100 rated power = %v, want 6500 (paper §5)", w)
	}
}

func TestPeakBelowRatedByDeratingMargin(t *testing.T) {
	// Paper §5: observed peak never exceeded 5700 W on the 6500 W machine,
	// leaving ~800 W of derating headroom.
	s := New(0, dgx())
	peak := s.PeakWatts()
	if peak > 5900 {
		t.Errorf("peak server power %v W leaves no derating headroom", peak)
	}
	if peak < 5300 {
		t.Errorf("peak server power %v W implausibly low", peak)
	}
	if headroom := s.Spec().ProvisionedWatts - peak; headroom < 600 {
		t.Errorf("derating headroom = %v W, want >= 600 (paper: ~800)", headroom)
	}
}

func TestGPUShareOfServerPowerAtLoad(t *testing.T) {
	// Figure 11: GPUs are ~60% of server power under load.
	s := New(0, dgx())
	gpuW := 8 * 400.0
	share := gpuW / s.PowerFromGPUs(gpuW)
	if share < 0.55 || share > 0.68 {
		t.Errorf("GPU share at load = %.2f, want ~0.6 (Figure 11)", share)
	}
}

func TestServerPowerMonotonicInGPUPower(t *testing.T) {
	s := New(0, dgx())
	last := 0.0
	for w := 600.0; w <= 3600; w += 200 {
		p := s.PowerFromGPUs(w)
		if p <= last {
			t.Fatalf("server power not monotonic at %v", w)
		}
		last = p
	}
}

func TestIdlePower(t *testing.T) {
	s := New(0, dgx())
	idle := s.IdleWatts()
	// 8 GPUs at 82 W plus host idle (~860 W).
	if idle < 1200 || idle > 2000 {
		t.Errorf("idle server power = %v W, want 1.2-2 kW", idle)
	}
	if s.PowerFromGPUs(0) < s.Spec().HostIdleWatts() {
		t.Error("host idle floor violated")
	}
}

func TestKnobFanout(t *testing.T) {
	s := New(3, dgx())
	s.SetBrake(true)
	for _, d := range s.GPUs() {
		if !d.Brake() {
			t.Fatal("SetBrake did not reach every GPU")
		}
	}
	if s.Index != 3 {
		t.Error("index lost")
	}
	if len(s.GPUs()) != 8 {
		t.Errorf("GPU count = %d", len(s.GPUs()))
	}
}
