// Package server models a DGX-A100-class GPU server: eight GPUs plus the
// host components (CPUs, fans, DRAM, NVSwitch, NICs, storage) whose
// provisioned power the paper breaks down in Figure 3.
//
// The server-level power model reproduces the paper's production findings
// (Figure 11): GPU power constitutes ~60% of server power under load, peak
// server power correlates tightly with peak GPU power, and the rated
// (provisioned) power of 6.5 kW is never reached — observed peaks stay
// below ~5.7 kW, which is the headroom the paper proposes reclaiming by
// derating (§5).
package server

import (
	"fmt"

	"polca/internal/gpu"
)

// Component is one entry of the provisioned-power breakdown (Figure 3).
type Component struct {
	Name             string
	ProvisionedWatts float64
	IdleWatts        float64 // draw at zero load
	PeakWatts        float64 // realistic draw at full load (≤ provisioned)
}

// Spec describes a GPU server SKU.
type Spec struct {
	Name             string
	GPU              gpu.Spec
	GPUCount         int
	ProvisionedWatts float64 // rated power used for datacenter provisioning
	// Host components other than GPUs, in display order.
	Components []Component
}

// DGXA100 returns the spec of an NVIDIA DGX-A100 with the given GPU SKU.
// The provisioned breakdown follows Figure 3: roughly half the rated power
// is GPUs and a quarter is fans.
func DGXA100(g gpu.Spec) Spec {
	return Spec{
		Name:             "DGX-A100",
		GPU:              g,
		GPUCount:         8,
		ProvisionedWatts: 6500,
		Components: []Component{
			{Name: "fans", ProvisionedWatts: 1600, IdleWatts: 300, PeakWatts: 1200},
			{Name: "cpus", ProvisionedWatts: 560, IdleWatts: 160, PeakWatts: 450},
			{Name: "dram", ProvisionedWatts: 350, IdleWatts: 120, PeakWatts: 280},
			{Name: "nvswitch+nic", ProvisionedWatts: 450, IdleWatts: 150, PeakWatts: 380},
			{Name: "storage+other", ProvisionedWatts: 340, IdleWatts: 130, PeakWatts: 250},
		},
	}
}

// GPUProvisionedWatts returns the provisioned power reserved for GPUs.
func (s Spec) GPUProvisionedWatts() float64 {
	return float64(s.GPUCount) * s.GPU.TDPWatts
}

// HostIdleWatts returns the non-GPU power at zero load.
func (s Spec) HostIdleWatts() float64 {
	var w float64
	for _, c := range s.Components {
		w += c.IdleWatts
	}
	return w
}

// HostPeakWatts returns the realistic non-GPU power at full load.
func (s Spec) HostPeakWatts() float64 {
	var w float64
	for _, c := range s.Components {
		w += c.PeakWatts
	}
	return w
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	if s.GPUCount <= 0 {
		return fmt.Errorf("server: %s: no GPUs", s.Name)
	}
	if err := s.GPU.Validate(); err != nil {
		return err
	}
	var prov float64
	for _, c := range s.Components {
		if c.IdleWatts < 0 || c.PeakWatts < c.IdleWatts || c.ProvisionedWatts < c.PeakWatts {
			return fmt.Errorf("server: %s: component %s power ordering violated", s.Name, c.Name)
		}
		prov += c.ProvisionedWatts
	}
	if prov+s.GPUProvisionedWatts() > s.ProvisionedWatts {
		return fmt.Errorf("server: %s: components exceed provisioned envelope", s.Name)
	}
	return nil
}

// Server is a stateful GPU server: a set of devices plus the host power
// model. Servers are identified by Index within their cluster.
type Server struct {
	Index int
	spec  Spec
	gpus  []*gpu.Device

	// Power-model constants, folded once at construction: PowerFromGPUs is
	// the telemetry hot path (every node, every sub-tick), and re-deriving
	// these from the spec there re-walks the component table per sample.
	gpuIdleW float64 // GPUIdleWatts()
	gpuSpanW float64 // GPUProvisionedWatts() - GPUIdleWatts()
	hostIdle float64 // HostIdleWatts()
	hostPeak float64 // HostPeakWatts()
}

// New returns a server with freshly initialized devices.
func New(index int, spec Spec) *Server {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	s := &Server{Index: index, spec: spec}
	for i := 0; i < spec.GPUCount; i++ {
		s.gpus = append(s.gpus, gpu.NewDevice(spec.GPU))
	}
	s.gpuIdleW = s.GPUIdleWatts()
	s.gpuSpanW = spec.GPUProvisionedWatts() - s.gpuIdleW
	s.hostIdle = spec.HostIdleWatts()
	s.hostPeak = spec.HostPeakWatts()
	return s
}

// Spec returns the server's SKU description.
func (s *Server) Spec() Spec { return s.spec }

// GPUs returns the server's devices.
func (s *Server) GPUs() []*gpu.Device { return s.gpus }

// GPUIdleWatts returns the aggregate idle power of the GPUs.
func (s *Server) GPUIdleWatts() float64 {
	return float64(s.spec.GPUCount) * s.spec.GPU.IdleWatts
}

// PowerFromGPUs maps an aggregate GPU power draw to total server power
// (what IPMI would report): host components ramp between their idle and
// peak draw with GPU load, dominated by fans tracking heat.
func (s *Server) PowerFromGPUs(gpuWatts float64) float64 {
	load := 0.0
	if s.gpuSpanW > 0 {
		load = (gpuWatts - s.gpuIdleW) / s.gpuSpanW
	}
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	host := s.hostIdle + load*(s.hostPeak-s.hostIdle)
	return gpuWatts + host
}

// IdleWatts returns total server power at idle.
func (s *Server) IdleWatts() float64 {
	return s.PowerFromGPUs(s.GPUIdleWatts())
}

// PeakWatts returns the realistic peak server power: all GPUs at their
// compute-spike power plus the host at full load. This is what the paper
// observes never exceeding ~5.7 kW on a 6.5 kW-rated machine.
func (s *Server) PeakWatts() float64 {
	// GPUs can transiently exceed TDP by the spike allowance in the gpu
	// model (~8%), bounded here by the reactive limiter's steady state.
	gpuPeak := float64(s.spec.GPUCount) * s.spec.GPU.TDPWatts * 1.02
	return s.PowerFromGPUs(gpuPeak)
}

// SetBrake engages or releases the power brake on every GPU.
func (s *Server) SetBrake(on bool) {
	for _, d := range s.gpus {
		d.SetBrake(on)
	}
}
