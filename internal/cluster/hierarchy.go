package cluster

import (
	"fmt"
	"strings"
)

// Topology describes the datacenter power-distribution hierarchy of
// Figure 2: the utility feed powers the datacenter floor, PDUs power rows
// of racks, racks hold GPU servers, and each server holds eight GPUs.
// Power budgets attach at the PDU (row) level, which is where POLCA takes
// its capping decisions (§6.3: "a higher power aggregation level, namely
// the PDU breaker").
type Topology struct {
	Name string
	// Rows is the number of PDU domains on the floor.
	Rows int
	// RacksPerRow and ServersPerRack describe the physical layout. Modern
	// GPU servers are power-dense: a 6U DGX-A100 allows ~4 per rack before
	// the rack budget, not space, binds (§6.7).
	RacksPerRow    int
	ServersPerRack int
	// ProvisionedPerServerWatts is the per-server power slice.
	ProvisionedPerServerWatts float64
	// UtilityFeedWatts is the datacenter's contracted power envelope.
	UtilityFeedWatts float64
	// CoolingPerRackWatts is the heat the row's cooling can remove per
	// rack. Zero means the air-cooling default (40 kW).
	CoolingPerRackWatts float64
}

// ProductionTopology returns a floor of Table 2-style rows: ten rows of
// ten racks, four DGX-class servers each, derated to 4.6 kW slices.
func ProductionTopology() Topology {
	return Topology{
		Name:                      "llm-inference-floor",
		Rows:                      10,
		RacksPerRow:               10,
		ServersPerRack:            4,
		ProvisionedPerServerWatts: 4600,
		UtilityFeedWatts:          2.0e6,
	}
}

// coolingLimit returns the effective per-rack cooling capacity.
func (t Topology) coolingLimit() float64 {
	if t.CoolingPerRackWatts > 0 {
		return t.CoolingPerRackWatts
	}
	return 40000 // conventional hot/cold-aisle air cooling
}

// CoolingHeadroom returns the fraction of per-rack cooling capacity left
// at the rack's realistic peak heat (§6.7: cooling could become a
// bottleneck under extreme oversubscription, but not in POLCA's range).
// Negative means the rack overwhelms its cooling.
func (t Topology) CoolingHeadroom(peakServerWatts float64) float64 {
	heat := float64(t.ServersPerRack) * peakServerWatts
	return 1 - heat/t.coolingLimit()
}

// ServersPerRow returns the server count in one PDU domain.
func (t Topology) ServersPerRow() int { return t.RacksPerRow * t.ServersPerRack }

// Servers returns the total server count on the floor.
func (t Topology) Servers() int { return t.Rows * t.ServersPerRow() }

// RowBudgetWatts returns one PDU's power budget.
func (t Topology) RowBudgetWatts() float64 {
	return float64(t.ServersPerRow()) * t.ProvisionedPerServerWatts
}

// RackBudgetWatts returns one rack's share of the row budget.
func (t Topology) RackBudgetWatts() float64 {
	return float64(t.ServersPerRack) * t.ProvisionedPerServerWatts
}

// FloorBudgetWatts returns the sum of row budgets.
func (t Topology) FloorBudgetWatts() float64 {
	return float64(t.Rows) * t.RowBudgetWatts()
}

// Validate reports whether the topology is coherent: every level must fit
// inside its parent's envelope.
func (t Topology) Validate() error {
	switch {
	case t.Rows <= 0 || t.RacksPerRow <= 0 || t.ServersPerRack <= 0:
		return fmt.Errorf("cluster: empty topology")
	case t.ProvisionedPerServerWatts <= 0:
		return fmt.Errorf("cluster: no per-server budget")
	case t.UtilityFeedWatts <= 0:
		return fmt.Errorf("cluster: no utility feed")
	case t.FloorBudgetWatts() > t.UtilityFeedWatts:
		return fmt.Errorf("cluster: floor budget %.0f W exceeds utility feed %.0f W",
			t.FloorBudgetWatts(), t.UtilityFeedWatts)
	}
	return nil
}

// OversubscribedServers returns how many servers the floor hosts at the
// given oversubscription level, and how many were gained.
func (t Topology) OversubscribedServers(added float64) (total, gained int) {
	perRow := int(float64(t.ServersPerRow())*(1+added) + 0.5)
	total = perRow * t.Rows
	return total, total - t.Servers()
}

// Describe renders the hierarchy as a Figure 2-style tree with budgets.
func (t Topology) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "utility feed (%.1f MW)\n", t.UtilityFeedWatts/1e6)
	fmt.Fprintf(&b, "└── datacenter floor %q: %d rows, %.2f MW provisioned\n",
		t.Name, t.Rows, t.FloorBudgetWatts()/1e6)
	fmt.Fprintf(&b, "    └── row (PDU): %d racks, %.0f kW — POLCA's capping domain\n",
		t.RacksPerRow, t.RowBudgetWatts()/1000)
	fmt.Fprintf(&b, "        └── rack: %d servers, %.1f kW\n",
		t.ServersPerRack, t.RackBudgetWatts()/1000)
	fmt.Fprintf(&b, "            └── server: 8 GPUs, %.1f kW slice (derated from 6.5 kW rating)\n",
		t.ProvisionedPerServerWatts/1000)
	return b.String()
}

// FloorPlan summarizes an oversubscription decision across the floor.
type FloorPlan struct {
	Topology      Topology
	Added         float64
	TotalServers  int
	GainedServers int
	// DatacentersAvoided expresses the gained capacity in fractions of the
	// original floor — the paper's headline framing ("reduces costs
	// through fewer datacenters").
	DatacentersAvoided float64
}

// PlanFloor computes the floor-level effect of deploying the given
// oversubscription fraction in every row.
func PlanFloor(t Topology, added float64) (FloorPlan, error) {
	if err := t.Validate(); err != nil {
		return FloorPlan{}, err
	}
	if added < 0 || added > 1 {
		return FloorPlan{}, fmt.Errorf("cluster: added fraction %v outside [0,1]", added)
	}
	total, gained := t.OversubscribedServers(added)
	return FloorPlan{
		Topology:           t,
		Added:              added,
		TotalServers:       total,
		GainedServers:      gained,
		DatacentersAvoided: float64(gained) / float64(t.Servers()),
	}, nil
}
