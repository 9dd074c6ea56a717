package cluster_test

import (
	"strings"
	"testing"

	"polca/internal/cluster"
	"polca/internal/gpu"
	"polca/internal/server"
)

func TestTopologyArithmetic(t *testing.T) {
	top := cluster.ProductionTopology()
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.ServersPerRow() != 40 {
		t.Errorf("servers per row = %d, want 40 (Table 2)", top.ServersPerRow())
	}
	if top.Servers() != 400 {
		t.Errorf("floor servers = %d, want 400", top.Servers())
	}
	if top.RowBudgetWatts() != 40*4600 {
		t.Errorf("row budget = %v", top.RowBudgetWatts())
	}
	if top.RackBudgetWatts() != 4*4600 {
		t.Errorf("rack budget = %v", top.RackBudgetWatts())
	}
	if top.FloorBudgetWatts() != 10*40*4600 {
		t.Errorf("floor budget = %v", top.FloorBudgetWatts())
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := cluster.ProductionTopology()
	bad.Rows = 0
	if bad.Validate() == nil {
		t.Error("empty topology should fail")
	}
	bad = cluster.ProductionTopology()
	bad.UtilityFeedWatts = 1000
	if bad.Validate() == nil {
		t.Error("floor exceeding utility feed should fail")
	}
	bad = cluster.ProductionTopology()
	bad.ProvisionedPerServerWatts = 0
	if bad.Validate() == nil {
		t.Error("zero slice should fail")
	}
}

func TestPlanFloor(t *testing.T) {
	top := cluster.ProductionTopology()
	plan, err := cluster.PlanFloor(top, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalServers != 520 || plan.GainedServers != 120 {
		t.Errorf("plan = %+v, want 520 total / 120 gained", plan)
	}
	if plan.DatacentersAvoided < 0.29 || plan.DatacentersAvoided > 0.31 {
		t.Errorf("datacenters avoided = %v, want ~0.30", plan.DatacentersAvoided)
	}
	if _, err := cluster.PlanFloor(top, -1); err == nil {
		t.Error("negative added should fail")
	}
	bad := top
	bad.Rows = 0
	if _, err := cluster.PlanFloor(bad, 0.3); err == nil {
		t.Error("invalid topology should fail")
	}
}

func TestDescribeHierarchy(t *testing.T) {
	text := cluster.ProductionTopology().Describe()
	for _, want := range []string{"utility feed", "row (PDU)", "rack", "8 GPUs", "POLCA"} {
		if !strings.Contains(text, want) {
			t.Errorf("Describe missing %q:\n%s", want, text)
		}
	}
}

func TestCoolingHeadroom(t *testing.T) {
	top := cluster.ProductionTopology()
	// §6.7: the oversubscription range does not hit the cooling bottleneck
	// — four DGX at realistic peak (~5.8 kW) sit well under 40 kW/rack.
	srv := server.New(0, server.DGXA100(gpu.A100SXM80GB()))
	head := top.CoolingHeadroom(srv.PeakWatts())
	if head < 0.3 {
		t.Errorf("air-cooling headroom = %.2f, want comfortable (paper §6.7)", head)
	}
	// Packing 8 such servers per rack would overwhelm air cooling.
	dense := top
	dense.ServersPerRack = 8
	if dense.CoolingHeadroom(srv.PeakWatts()) > 0.2 {
		t.Error("8 DGX per air-cooled rack should leave little headroom")
	}
	// Immersion cooling (paper cites [28]) lifts the limit.
	dense.CoolingPerRackWatts = 100000
	if dense.CoolingHeadroom(srv.PeakWatts()) < 0.3 {
		t.Error("immersion cooling should restore headroom")
	}
}
