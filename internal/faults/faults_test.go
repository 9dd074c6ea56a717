package faults_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"polca/internal/faults"
)

// namedStreams returns a rnd callback like sim.Engine.Rand: a deterministic
// stream per name, stable across runs.
func namedStreams(seed int64) func(name string) *rand.Rand {
	return func(name string) *rand.Rand {
		h := seed
		for _, c := range name {
			h = h*31 + int64(c)
		}
		return rand.New(rand.NewSource(h))
	}
}

func TestParseEmpty(t *testing.T) {
	for _, text := range []string{"", "   ", ",", " , "} {
		s, err := faults.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if s.Enabled() {
			t.Errorf("Parse(%q) should be disabled, got %+v", text, s)
		}
		if s.String() != "" {
			t.Errorf("zero spec String() = %q, want empty", s.String())
		}
	}
}

func TestParseFullScenario(t *testing.T) {
	text := "tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,tblackout=4h+5m," +
		"crash=6h+20,miss=0.01,oobburst=11h+15m,ooblat=1.5,kill=2@8h+1h,slow=2:1.3," +
		"drain=2@12h+30m"
	s, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Spec{
		DropProb:  0.05,
		SpikeProb: 0.02, SpikeMag: 0.5,
		Stuck:        []faults.Window{{Start: 10 * time.Hour, Dur: 30 * time.Minute}},
		Blackout:     []faults.Window{{Start: 4 * time.Hour, Dur: 5 * time.Minute}},
		Crashes:      []faults.Crash{{At: 6 * time.Hour, Epochs: 20}},
		MissProb:     0.01,
		Burst:        []faults.Window{{Start: 11 * time.Hour, Dur: 15 * time.Minute}},
		LatencyScale: 1.5,
		Kills:        []faults.Kill{{Servers: 2, Window: faults.Window{Start: 8 * time.Hour, Dur: time.Hour}}},
		Stragglers:   2, StragglerFactor: 1.3,
		Drains: []faults.Kill{{Servers: 2, Window: faults.Window{Start: 12 * time.Hour, Dur: 30 * time.Minute}}},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("Parse mismatch:\n got %+v\nwant %+v", s, want)
	}
	if !s.Enabled() {
		t.Error("full scenario should be enabled")
	}
}

// TestRoundTrip: Parse(s.String()) must be equivalent to s, with windows
// in the canonical sorted order.
func TestRoundTrip(t *testing.T) {
	specs := []string{
		"tdrop=0.05",
		"tspike=0.02:0.5",
		"tstuck=1h+5m,tstuck=30m+1m", // out of order: String sorts
		"crash=2h+10,crash=1h+5",
		"kill=3@2h+10m,kill=1@1h+5m",
		"miss=0.1,ooblat=2,slow=4:1.5",
		"drain=3@2h+10m,drain=1@1h+5m", // out of order: String sorts
		"tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,tblackout=4h+5m," +
			"crash=6h+20,miss=0.01,oobburst=11h+15m,ooblat=1.5,kill=2@8h+1h,slow=2:1.3," +
			"drain=2@12h+30m",
	}
	for _, text := range specs {
		s, err := faults.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		canon := s.String()
		s2, err := faults.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", canon, err)
		}
		if got := s2.String(); got != canon {
			t.Errorf("round trip of %q not canonical: %q then %q", text, canon, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nonsense",             // not key=value
		"frob=1",               // unknown key
		"tdrop=1.5",            // probability out of range
		"tdrop=-0.1",           // negative probability
		"tdrop=NaN",            // not a number
		"tspike=0.1",           // missing magnitude
		"tspike=0.1:9",         // magnitude out of range
		"tstuck=5m",            // missing duration
		"tstuck=bogus+5m",      // bad start
		"tstuck=-1h+5m",        // negative start
		"crash=5m",             // missing epochs
		"crash=5m+x",           // bad epoch count
		"kill=2h+5m",           // missing count
		"kill=x@2h+5m",         // bad count
		"kill=-1@2h+5m",        // negative count
		"drain=2h+5m",          // missing count
		"drain=x@2h+5m",        // bad count
		"drain=-1@2h+5m",       // negative count
		"slow=2.5:1.3",         // fractional straggler count
		"slow=2:0.5",           // speed-up is not a straggler
		"ooblat=-1",            // negative latency scale
		"ooblat=Inf",           // not finite
		"tdrop=0.05,miss=1.00", // one bad item poisons the spec
	}
	for _, text := range bad {
		if _, err := faults.Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestScaleZeroAndIdentity(t *testing.T) {
	s, err := faults.Parse("tdrop=0.05,tstuck=1h+10m,crash=2h+8,kill=2@3h+20m,slow=2:1.5,ooblat=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Scale(0); got.Enabled() {
		t.Errorf("Scale(0) = %+v, want disabled", got)
	}
	if got := s.Scale(-3); got.Enabled() {
		t.Errorf("Scale(-3) = %+v, want disabled", got)
	}
	if got, want := s.Scale(1).String(), s.String(); got != want {
		t.Errorf("Scale(1) = %q, want %q", got, want)
	}
}

func TestScaleHalvesAndCaps(t *testing.T) {
	s, err := faults.Parse("tdrop=0.5,tstuck=1h+10m,crash=2h+8,kill=4@3h+20m,slow=2:1.5,ooblat=2")
	if err != nil {
		t.Fatal(err)
	}
	h := s.Scale(0.5)
	if h.DropProb != 0.25 {
		t.Errorf("DropProb = %v, want 0.25", h.DropProb)
	}
	if h.Stuck[0].Dur != 5*time.Minute {
		t.Errorf("stuck dur = %v, want 5m", h.Stuck[0].Dur)
	}
	if h.Crashes[0].Epochs != 4 {
		t.Errorf("crash epochs = %d, want 4", h.Crashes[0].Epochs)
	}
	if h.Kills[0].Servers != 2 || h.Kills[0].Dur != 10*time.Minute {
		t.Errorf("kill = %+v, want 2 servers for 10m", h.Kills[0])
	}
	if h.Stragglers != 1 || h.StragglerFactor != 1.25 {
		t.Errorf("stragglers = %d×%v, want 1×1.25", h.Stragglers, h.StragglerFactor)
	}
	if h.LatencyScale != 1.5 {
		t.Errorf("latency scale = %v, want 1.5", h.LatencyScale)
	}
	// Scaling far up saturates probabilities below 1 so Validate still holds.
	up := s.Scale(10)
	if up.DropProb != 0.99 {
		t.Errorf("DropProb at Scale(10) = %v, want 0.99 cap", up.DropProb)
	}
	if err := up.Validate(); err != nil {
		t.Errorf("scaled-up spec should validate: %v", err)
	}
}

func TestNilInjector(t *testing.T) {
	var inj *faults.Injector
	if got, ok := inj.Telemetry(time.Hour, 0.7, 0.5, true); got != 0.7 || !ok {
		t.Errorf("nil Telemetry = (%v, %v), want (0.7, true)", got, ok)
	}
	if inj.ControllerDown(time.Hour, 2*time.Second) {
		t.Error("nil ControllerDown should be false")
	}
	if inj.MissedTick() {
		t.Error("nil MissedTick should be false")
	}
	if inj.OOBBurstFailure(time.Hour) {
		t.Error("nil OOBBurstFailure should be false")
	}
	if got := inj.OOBLatency(40 * time.Second); got != 40*time.Second {
		t.Errorf("nil OOBLatency = %v, want 40s", got)
	}
	if inj.ServerDead(3, time.Hour) {
		t.Error("nil ServerDead should be false")
	}
	if got := inj.SlowFactor(3); got != 1 {
		t.Errorf("nil SlowFactor = %v, want 1", got)
	}
	if inj.Counts() != (faults.Counts{}) || inj.Spec().Enabled() {
		t.Error("nil injector should report zero counts and spec")
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if inj := faults.New(faults.Spec{}, 16, namedStreams(1)); inj != nil {
		t.Errorf("New with zero spec = %v, want nil", inj)
	}
}

func TestInjectorWindows(t *testing.T) {
	spec, err := faults.Parse("tblackout=1h+10m,tstuck=2h+10m,oobburst=3h+10m,crash=4h+5,ooblat=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(spec, 8, namedStreams(1))
	if inj == nil {
		t.Fatal("injector should be live")
	}
	// Blackout loses the sample entirely.
	if _, ok := inj.Telemetry(time.Hour+time.Minute, 0.7, 0.6, true); ok {
		t.Error("sample inside blackout should be lost")
	}
	// Stuck repeats the last delivered reading.
	if got, ok := inj.Telemetry(2*time.Hour+time.Minute, 0.7, 0.6, true); !ok || got != 0.6 {
		t.Errorf("stuck sample = (%v, %v), want (0.6, true)", got, ok)
	}
	// Stuck with no prior reading passes the truth through (nothing to freeze).
	if got, ok := inj.Telemetry(2*time.Hour+2*time.Minute, 0.7, 0, false); !ok || got != 0.7 {
		t.Errorf("stuck sample without last = (%v, %v), want (0.7, true)", got, ok)
	}
	// Windows are half-open: the end instant is outside.
	if inj.OOBBurstFailure(3*time.Hour + 10*time.Minute) {
		t.Error("burst window end should be exclusive")
	}
	if !inj.OOBBurstFailure(3*time.Hour + 9*time.Minute) {
		t.Error("inside burst window should doom the command")
	}
	// Crash covers Epochs telemetry intervals.
	epoch := 2 * time.Second
	if !inj.ControllerDown(4*time.Hour, epoch) {
		t.Error("controller should be down at crash start")
	}
	if inj.ControllerDown(4*time.Hour+5*epoch, epoch) {
		t.Error("controller should be back after 5 epochs")
	}
	if got := inj.OOBLatency(40 * time.Second); got != 80*time.Second {
		t.Errorf("OOBLatency = %v, want 80s", got)
	}
	c := inj.Counts()
	if c.TelemetryLost != 1 || c.TelemetryStuck != 1 || c.OOBBurstFails != 1 || c.CtrlCrashTicks != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestInjectorVictimsDeterministic(t *testing.T) {
	spec, err := faults.Parse("slow=2:1.5,kill=3@1h+10m")
	if err != nil {
		t.Fatal(err)
	}
	const servers = 16
	a := faults.New(spec, servers, namedStreams(7))
	b := faults.New(spec, servers, namedStreams(7))
	mid := time.Hour + 5*time.Minute
	var slowA, slowB, deadA, deadB []int
	for i := 0; i < servers; i++ {
		if a.SlowFactor(i) > 1 {
			slowA = append(slowA, i)
		}
		if b.SlowFactor(i) > 1 {
			slowB = append(slowB, i)
		}
		if a.ServerDead(i, mid) {
			deadA = append(deadA, i)
		}
		if b.ServerDead(i, mid) {
			deadB = append(deadB, i)
		}
	}
	if len(slowA) != 2 || len(deadA) != 3 {
		t.Fatalf("victim counts: %d slow, %d dead", len(slowA), len(deadA))
	}
	if !reflect.DeepEqual(slowA, slowB) || !reflect.DeepEqual(deadA, deadB) {
		t.Error("same seed should pick the same victims")
	}
	for _, s := range slowA {
		for _, d := range deadA {
			if s == d {
				t.Errorf("server %d is both straggler and kill victim; draws should not overlap", s)
			}
		}
	}
	// Nobody dies outside the window.
	for i := 0; i < servers; i++ {
		if a.ServerDead(i, 3*time.Hour) {
			t.Errorf("server %d dead outside the kill window", i)
		}
	}
}

func TestTelemetryStreamDeterministic(t *testing.T) {
	spec, err := faults.Parse("tdrop=0.2,tspike=0.2:0.5")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		inj := faults.New(spec, 4, namedStreams(42))
		var out []float64
		last, have := 0.0, false
		for i := 0; i < 500; i++ {
			v, ok := inj.Telemetry(time.Duration(i)*2*time.Second, 0.6, last, have)
			if !ok {
				out = append(out, -1)
				continue
			}
			out = append(out, v)
			last, have = v, true
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed + spec should produce an identical fault sequence")
	}
	var lost, spiked int
	for _, v := range a {
		switch {
		case v == -1:
			lost++
		case v != 0.6:
			spiked++
		}
	}
	if lost == 0 || spiked == 0 {
		t.Errorf("expected both dropouts and spikes in 500 ticks, got %d lost %d spiked", lost, spiked)
	}
}

func TestValidateRejectsHandBuiltBadSpecs(t *testing.T) {
	bad := []faults.Spec{
		{DropProb: 1},
		{SpikeProb: 0.1}, // spike without magnitude
		{SpikeProb: 0.1, SpikeMag: 3},
		{MissProb: -0.5},
		{LatencyScale: -1},
		{Stragglers: -1},
		{Stragglers: 1, StragglerFactor: 0.5},
		{Stuck: []faults.Window{{Start: -time.Hour, Dur: time.Minute}}},
		{Crashes: []faults.Crash{{At: time.Hour, Epochs: -1}}},
		{Kills: []faults.Kill{{Servers: -1, Window: faults.Window{Start: 0, Dur: time.Minute}}}},
		{Drains: []faults.Kill{{Servers: -1, Window: faults.Window{Start: 0, Dur: time.Minute}}}},
		{Drains: []faults.Kill{{Servers: 1, Window: faults.Window{Start: -time.Hour, Dur: time.Minute}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, s)
		}
	}
}

// TestDrainAction covers the graceful-drain/maintenance action end to end:
// the spec is enabled by drains alone, scaling behaves like kills, the
// injector reports draining servers only inside the window, and the drain
// victims never overlap the kill or straggler draws.
func TestDrainAction(t *testing.T) {
	spec, err := faults.Parse("drain=4@1h+30m")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Enabled() {
		t.Error("drain-only spec should be enabled")
	}
	h := spec.Scale(0.5)
	if h.Drains[0].Servers != 2 || h.Drains[0].Dur != 15*time.Minute {
		t.Errorf("scaled drain = %+v, want 2 servers for 15m", h.Drains[0])
	}
	if got := spec.Scale(0); got.Enabled() {
		t.Errorf("Scale(0) = %+v, want disabled", got)
	}

	const servers = 16
	mixed, err := faults.Parse("kill=3@1h+10m,slow=2:1.5,drain=4@2h+30m")
	if err != nil {
		t.Fatal(err)
	}
	a := faults.New(mixed, servers, namedStreams(7))
	b := faults.New(mixed, servers, namedStreams(7))
	mid := 2*time.Hour + 5*time.Minute
	var drainA, drainB, deadA []int
	for i := 0; i < servers; i++ {
		if a.ServerDraining(i, mid) {
			drainA = append(drainA, i)
		}
		if b.ServerDraining(i, mid) {
			drainB = append(drainB, i)
		}
		if a.ServerDead(i, time.Hour+5*time.Minute) {
			deadA = append(deadA, i)
		}
		if a.ServerDraining(i, 4*time.Hour) {
			t.Errorf("server %d draining outside the window", i)
		}
	}
	if len(drainA) != 4 || len(deadA) != 3 {
		t.Fatalf("victim counts: %d draining, %d dead", len(drainA), len(deadA))
	}
	if !reflect.DeepEqual(drainA, drainB) {
		t.Error("same seed should pick the same drain victims")
	}
	for _, dr := range drainA {
		for _, d := range deadA {
			if dr == d {
				t.Errorf("server %d is both drain and kill victim; draws should not overlap", dr)
			}
		}
		if a.SlowFactor(dr) > 1 {
			t.Errorf("server %d is both drain victim and straggler", dr)
		}
	}
	// The drain clause renders last in the canonical form, after slow.
	full, err := faults.Parse("drain=1@1h+5m,slow=2:1.3,kill=1@2h+5m")
	if err != nil {
		t.Fatal(err)
	}
	canon := full.String()
	if !strings.HasSuffix(canon, "drain=1@1h0m0s+5m0s") {
		t.Errorf("canonical form should end with the drain clause: %q", canon)
	}

	// A nil injector never drains.
	var nilInj *faults.Injector
	if nilInj.ServerDraining(0, time.Hour) {
		t.Error("nil ServerDraining should be false")
	}
}

// FuzzFaultSpec feeds arbitrary text through the parser: it must never
// panic, and any accepted spec must validate, render canonically, and
// round-trip through Parse → String → Parse to the same canonical form.
func FuzzFaultSpec(f *testing.F) {
	seeds := []string{
		"",
		"tdrop=0.05",
		"tspike=0.02:0.5",
		"tstuck=10h+30m,tblackout=4h+5m",
		"crash=6h+20,miss=0.01",
		"oobburst=11h+15m,ooblat=1.5",
		"kill=2@8h+1h,slow=2:1.3",
		"tdrop=0.05,tspike=0.02:0.5,tstuck=10h+30m,crash=6h+20,kill=2@8h+1h",
		"drain=2@4h+30m",
		"kill=2@8h+1h,drain=4@8h+1h",
		"tdrop=",
		"kill=@+",
		"drain=@+",
		"slow=1e300:2",
		"crash=9223372036854775807ns+1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := faults.Parse(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v (input %q)", err, text)
		}
		canon := s.String()
		if strings.TrimSpace(text) == "" && canon != "" {
			t.Fatalf("blank input produced non-empty canonical form %q", canon)
		}
		s2, err := faults.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v (input %q)", canon, err, text)
		}
		if got := s2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q then %q (input %q)", canon, got, text)
		}
		// Scaling never produces an invalid spec.
		for _, f := range []float64{0, 0.25, 1, 3} {
			if err := s.Scale(f).Validate(); err != nil {
				t.Fatalf("Scale(%v) of %q invalid: %v", f, canon, err)
			}
		}
	})
}
