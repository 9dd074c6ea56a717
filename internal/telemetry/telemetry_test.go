package telemetry

import (
	"testing"
	"time"

	"polca/internal/gpu"
)

func idleCtr() gpu.Counters { return gpu.Counters{PowerWatts: 82} }

func exec(watts float64, dur time.Duration) gpu.Exec {
	return gpu.Exec{
		Segments: []gpu.Segment{{Duration: dur, Counters: gpu.Counters{PowerWatts: watts}}},
		Duration: dur,
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	dcgm, err := ByName("DCGM")
	if err != nil {
		t.Fatal(err)
	}
	if dcgm.Path != InBand || dcgm.Interval != 100*time.Millisecond {
		t.Errorf("DCGM = %+v, want IB at 100ms", dcgm)
	}
	smbpbi, _ := ByName("SMBPBI")
	if smbpbi.Path != OutOfBand || smbpbi.Interval < 5*time.Second || smbpbi.Reliable {
		t.Errorf("SMBPBI = %+v, want slow unreliable OOB (paper §3.3)", smbpbi)
	}
	rm, _ := ByName("RowManager")
	if rm.Interval != 2*time.Second {
		t.Errorf("row manager interval = %v, want 2s (Table 2)", rm.Interval)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown interface should error")
	}
	if InBand.String() != "IB" || OutOfBand.String() != "OOB" {
		t.Error("path strings wrong")
	}
}

// mustAppend appends and fails the test on error.
func mustAppend(t *testing.T, tl *Timeline, start time.Duration, e gpu.Exec) time.Duration {
	t.Helper()
	end, err := tl.Append(start, e)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestTimelineAppendAndAt(t *testing.T) {
	tl := NewTimeline(idleCtr())
	end := mustAppend(t, tl, 0, exec(400, time.Second))
	if end != time.Second {
		t.Fatalf("end = %v", end)
	}
	end = mustAppend(t, tl, end, exec(250, 2*time.Second))
	if end != 3*time.Second {
		t.Fatalf("end = %v", end)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 400},
		{999 * time.Millisecond, 400},
		{time.Second, 250},
		{2500 * time.Millisecond, 250},
		{3 * time.Second, 82}, // past the end: idle
		{10 * time.Second, 82},
	}
	for _, c := range cases {
		if got := tl.At(c.at).PowerWatts; got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestTimelineGapIsIdle(t *testing.T) {
	tl := NewTimeline(idleCtr())
	mustAppend(t, tl, 0, exec(400, time.Second))
	tl.AppendIdle(time.Second)
	mustAppend(t, tl, tl.End(), exec(300, time.Second))
	if got := tl.At(1500 * time.Millisecond).PowerWatts; got != 82 {
		t.Errorf("gap power = %v, want idle 82", got)
	}
	if got := tl.At(2500 * time.Millisecond).PowerWatts; got != 300 {
		t.Errorf("post-gap power = %v, want 300", got)
	}
}

func TestAppendBackwardsErrors(t *testing.T) {
	tl := NewTimeline(idleCtr())
	mustAppend(t, tl, 0, exec(400, time.Second))
	end, err := tl.Append(500*time.Millisecond, exec(100, time.Second))
	if err == nil {
		t.Fatal("overlapping append should error")
	}
	if end != time.Second {
		t.Errorf("failed append moved the end to %v, want %v", end, time.Second)
	}
	// The timeline is unchanged: the original segment still reads through.
	if got := tl.At(750 * time.Millisecond).PowerWatts; got != 400 {
		t.Errorf("At after rejected append = %v, want 400", got)
	}
}

func TestSampleInstant(t *testing.T) {
	tl := NewTimeline(idleCtr())
	mustAppend(t, tl, 0, exec(400, 250*time.Millisecond))
	mustAppend(t, tl, tl.End(), exec(200, 250*time.Millisecond))
	s := tl.SampleInstant(100*time.Millisecond, Power)
	want := []float64{400, 400, 400, 200, 200}
	if len(s.Values) != len(want) {
		t.Fatalf("samples = %v", s.Values)
	}
	for i := range want {
		if s.Values[i] != want[i] {
			t.Errorf("sample[%d] = %v, want %v", i, s.Values[i], want[i])
		}
	}
}

func TestMeanBetween(t *testing.T) {
	tl := NewTimeline(idleCtr())
	mustAppend(t, tl, 0, exec(400, time.Second))
	mustAppend(t, tl, tl.End(), exec(200, time.Second))
	got := tl.MeanBetween(500*time.Millisecond, 1500*time.Millisecond, Power)
	if got != 300 {
		t.Errorf("MeanBetween = %v, want 300", got)
	}
	// Beyond the end blends idle.
	got = tl.MeanBetween(1500*time.Millisecond, 2500*time.Millisecond, Power)
	if got != (200*0.5 + 82*0.5) {
		t.Errorf("MeanBetween with idle tail = %v", got)
	}
	// Degenerate interval returns the instantaneous value.
	if got := tl.MeanBetween(time.Second, time.Second, Power); got != 200 {
		t.Errorf("degenerate MeanBetween = %v", got)
	}
}

func TestSampleStepValidation(t *testing.T) {
	tl := NewTimeline(idleCtr())
	defer func() {
		if recover() == nil {
			t.Error("zero step should panic")
		}
	}()
	tl.SampleInstant(0, Power)
}

func TestSelectors(t *testing.T) {
	c := gpu.Counters{
		PowerWatts: 1, GPUUtil: 2, MemUtil: 3, SMActivity: 4,
		TensorActivity: 5, MemActivity: 6, PCIeTXMBps: 7, PCIeRXMBps: 8,
	}
	sel := []struct {
		f    func(gpu.Counters) float64
		want float64
	}{
		{Power, 1}, {GPUUtil, 2}, {MemUtil, 3}, {SMAct, 4},
		{TensorAct, 5}, {MemAct, 6}, {PCIeTX, 7}, {PCIeRX, 8},
	}
	for i, s := range sel {
		if got := s.f(c); got != s.want {
			t.Errorf("selector %d = %v, want %v", i, got, s.want)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := NewTimeline(idleCtr())
	if got := tl.At(0).PowerWatts; got != 82 {
		t.Errorf("empty timeline At = %v", got)
	}
	if s := tl.SampleInstant(time.Second, Power); len(s.Values) != 0 {
		t.Errorf("empty timeline samples = %v", s.Values)
	}
}
