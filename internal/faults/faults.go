// Package faults is the deterministic fault-injection subsystem of the
// POLCA reproduction. The paper's §7 deployment discussion assumes the
// framework stays safe when its inputs break — SMBPBI telemetry is listed
// as "unreliable" in Table 1, OOB actuation fails silently (§3.3), and the
// UPS power brake exists precisely because everything above it can fail.
// This package models those failures so the simulator can prove the
// degradation paths hold, instead of only exercising the happy path.
//
// A Spec describes what to inject, in four classes:
//
//   - telemetry faults: per-tick sample dropout, stuck-at (frozen sensor)
//     windows, spike noise, and blackout windows where every sample is lost;
//   - controller faults: crashes (the controller is silent for N epochs and
//     cold-restarts with no state) and missed control ticks;
//   - OOB channel degradation: burst windows during which every in-flight
//     command fails silently, and latency inflation beyond the 40 s baseline;
//   - server faults: node death windows (the active request is lost) and
//     straggler nodes whose work is stretched by a constant factor.
//
// Specs round-trip through a compact textual DSL (Parse / Spec.String) so
// chaos scenarios can be passed on a command line and stamped into result
// provenance. An Injector is the runtime: it owns named random streams and
// window state, and every query is pure with respect to simulation state. A
// nil *Injector is a valid "no faults" instance, mirroring the obs package's
// nil-receiver contract, so the disabled path costs one branch.
//
// Determinism is load-bearing: the same seed and the same spec produce the
// same fault sequence, byte for byte, because all randomness derives from
// the engine's named streams and windows are fixed simulated-time intervals.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Window is a half-open interval [Start, Start+Dur) of simulated time.
type Window struct {
	Start time.Duration
	Dur   time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	return t >= w.Start && t < w.Start+w.Dur
}

func (w Window) String() string { return fmt.Sprintf("%s+%s", w.Start, w.Dur) }

// Crash is one controller outage: at At the controller dies; it restarts,
// with cold state, after Epochs telemetry epochs of silence.
type Crash struct {
	At     time.Duration
	Epochs int
}

// Kill is one server-death window: Servers nodes are down for the window
// and revive cold (clocks unlocked, no state) when it ends.
type Kill struct {
	Servers int
	Window
}

// Spec describes a fault scenario. The zero value injects nothing.
type Spec struct {
	// Telemetry faults (the row-manager reading the controller consumes).
	DropProb  float64  // per-tick probability a sample is lost
	SpikeProb float64  // per-tick probability of a noise spike
	SpikeMag  float64  // relative spike magnitude (0.3 = ±30%)
	Stuck     []Window // frozen-sensor windows: the sensor repeats its last value
	Blackout  []Window // total telemetry loss windows

	// Controller faults.
	Crashes  []Crash // controller outages with cold restart
	MissProb float64 // per-tick probability the controller misses its tick

	// OOB channel degradation.
	Burst        []Window // commands issued inside a window fail silently
	LatencyScale float64  // multiplier on the OOB actuation latency (0 or 1 = off)

	// Server faults.
	Kills           []Kill  // node-death windows
	Stragglers      int     // nodes permanently slowed
	StragglerFactor float64 // work stretch for straggler nodes (1.3 = 30% slower)

	// Operator actions. Drains are graceful-drain (maintenance) windows:
	// the affected servers finish their in-flight work but refuse new
	// admissions for the window, then return to service. Unlike Kills,
	// nothing is lost — this models planned node maintenance, the benign
	// counterpart of a death window.
	Drains []Kill
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.DropProb > 0 || s.SpikeProb > 0 ||
		len(s.Stuck) > 0 || len(s.Blackout) > 0 ||
		len(s.Crashes) > 0 || s.MissProb > 0 ||
		len(s.Burst) > 0 || (s.LatencyScale != 0 && s.LatencyScale != 1) ||
		len(s.Kills) > 0 || (s.Stragglers > 0 && s.StragglerFactor > 1) ||
		len(s.Drains) > 0
}

// Validate reports whether the spec is coherent.
func (s Spec) Validate() error {
	switch {
	case s.DropProb < 0 || s.DropProb >= 1:
		return fmt.Errorf("faults: drop probability %v outside [0,1)", s.DropProb)
	case s.SpikeProb < 0 || s.SpikeProb >= 1:
		return fmt.Errorf("faults: spike probability %v outside [0,1)", s.SpikeProb)
	case s.SpikeProb > 0 && (s.SpikeMag <= 0 || s.SpikeMag > 2):
		return fmt.Errorf("faults: spike magnitude %v outside (0,2]", s.SpikeMag)
	case s.MissProb < 0 || s.MissProb >= 1:
		return fmt.Errorf("faults: miss probability %v outside [0,1)", s.MissProb)
	case s.LatencyScale < 0:
		return fmt.Errorf("faults: negative OOB latency scale %v", s.LatencyScale)
	case s.Stragglers < 0:
		return fmt.Errorf("faults: negative straggler count")
	case s.Stragglers > 0 && s.StragglerFactor < 1:
		return fmt.Errorf("faults: straggler factor %v below 1", s.StragglerFactor)
	}
	checkWindows := func(kind string, ws []Window) error {
		for _, w := range ws {
			if w.Start < 0 || w.Dur < 0 {
				return fmt.Errorf("faults: negative %s window %s", kind, w)
			}
		}
		return nil
	}
	if err := checkWindows("stuck", s.Stuck); err != nil {
		return err
	}
	if err := checkWindows("blackout", s.Blackout); err != nil {
		return err
	}
	if err := checkWindows("oob burst", s.Burst); err != nil {
		return err
	}
	for _, c := range s.Crashes {
		if c.At < 0 || c.Epochs < 0 {
			return fmt.Errorf("faults: bad crash at %v for %d epochs", c.At, c.Epochs)
		}
	}
	for _, k := range s.Kills {
		if k.Servers < 0 || k.Start < 0 || k.Dur < 0 {
			return fmt.Errorf("faults: bad kill of %d servers at %s", k.Servers, k.Window)
		}
	}
	for _, d := range s.Drains {
		if d.Servers < 0 || d.Start < 0 || d.Dur < 0 {
			return fmt.Errorf("faults: bad drain of %d servers at %s", d.Servers, d.Window)
		}
	}
	return nil
}

// Scale returns a copy with every fault intensity multiplied by f: the
// probabilistic rates scale directly, window durations stretch or shrink,
// and discrete counts (crash epochs, killed servers, stragglers) round to
// the nearest integer. Scale(0) disables everything; Scale(1) is identity.
// The figfault experiment sweeps this knob.
func (s Spec) Scale(f float64) Spec {
	if f < 0 {
		f = 0
	}
	scaleProb := func(p float64) float64 {
		p *= f
		if p > 0.99 {
			p = 0.99
		}
		return p
	}
	scaleWindows := func(ws []Window) []Window {
		var out []Window
		for _, w := range ws {
			if d := time.Duration(float64(w.Dur) * f); d > 0 {
				out = append(out, Window{Start: w.Start, Dur: d})
			}
		}
		return out
	}
	out := s
	out.DropProb = scaleProb(s.DropProb)
	out.SpikeProb = scaleProb(s.SpikeProb)
	out.MissProb = scaleProb(s.MissProb)
	out.Stuck = scaleWindows(s.Stuck)
	out.Blackout = scaleWindows(s.Blackout)
	out.Burst = scaleWindows(s.Burst)
	out.Crashes = nil
	for _, c := range s.Crashes {
		if n := int(math.Round(float64(c.Epochs) * f)); n > 0 {
			out.Crashes = append(out.Crashes, Crash{At: c.At, Epochs: n})
		}
	}
	out.Kills = nil
	for _, k := range s.Kills {
		n := int(math.Round(float64(k.Servers) * f))
		d := time.Duration(float64(k.Dur) * f)
		if n > 0 && d > 0 {
			out.Kills = append(out.Kills, Kill{Servers: n, Window: Window{Start: k.Start, Dur: d}})
		}
	}
	out.Drains = nil
	for _, d := range s.Drains {
		n := int(math.Round(float64(d.Servers) * f))
		dur := time.Duration(float64(d.Dur) * f)
		if n > 0 && dur > 0 {
			out.Drains = append(out.Drains, Kill{Servers: n, Window: Window{Start: d.Start, Dur: dur}})
		}
	}
	out.Stragglers = int(math.Round(float64(s.Stragglers) * f))
	if s.StragglerFactor > 1 {
		out.StragglerFactor = 1 + (s.StragglerFactor-1)*f
	}
	if out.LatencyScale != 0 && out.LatencyScale != 1 {
		out.LatencyScale = 1 + (s.LatencyScale-1)*f
		if out.LatencyScale < 0 {
			out.LatencyScale = 0
		}
	}
	if !out.Enabled() {
		return Spec{}
	}
	return out
}

// --- textual DSL ---

// Parse builds a Spec from its textual form: comma-separated key=value
// items. Keys (durations use Go syntax, "90m" or "1h30m"):
//
//	tdrop=P           telemetry sample dropout probability per tick
//	tspike=P:MAG      spike probability and relative magnitude
//	tstuck=START+DUR  frozen-sensor window (repeatable)
//	tblackout=START+DUR  telemetry blackout window (repeatable)
//	crash=START+N     controller crash at START, silent for N epochs (repeatable)
//	miss=P            missed control-tick probability
//	oobburst=START+DUR  OOB burst-failure window (repeatable)
//	ooblat=F          OOB latency multiplier (>= 0)
//	kill=K@START+DUR  K servers dead during the window (repeatable)
//	slow=K:F          K straggler servers with work stretched by F
//	drain=K@START+DUR K servers gracefully draining during the window
//	                  (maintenance: in-flight work finishes, admissions
//	                  refused; repeatable)
//
// An empty string parses to the zero Spec (no faults).
func Parse(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" {
		return s, nil
	}
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", item)
		}
		var err error
		switch key {
		case "tdrop":
			s.DropProb, err = parseProb(val)
		case "tspike":
			s.SpikeProb, s.SpikeMag, err = parsePair(val)
		case "tstuck":
			err = appendWindow(&s.Stuck, val)
		case "tblackout":
			err = appendWindow(&s.Blackout, val)
		case "crash":
			var c Crash
			c, err = parseCrash(val)
			s.Crashes = append(s.Crashes, c)
		case "miss":
			s.MissProb, err = parseProb(val)
		case "oobburst":
			err = appendWindow(&s.Burst, val)
		case "ooblat":
			s.LatencyScale, err = parseFloat(val)
		case "kill":
			var k Kill
			k, err = parseKill(val)
			s.Kills = append(s.Kills, k)
		case "drain":
			var d Kill
			d, err = parseKill(val)
			s.Drains = append(s.Drains, d)
		case "slow":
			var f float64
			var n float64
			n, f, err = parsePair(val)
			s.Stragglers = int(n)
			s.StragglerFactor = f
			if err == nil && float64(s.Stragglers) != n {
				err = fmt.Errorf("faults: straggler count %v is not an integer", n)
			}
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faults: %s: %w", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec in the canonical DSL form: Parse(s.String()) is
// equivalent to s (windows are emitted in a stable sorted order).
func (s Spec) String() string {
	var items []string
	add := func(format string, args ...any) {
		items = append(items, fmt.Sprintf(format, args...))
	}
	if s.DropProb > 0 {
		add("tdrop=%s", trimFloat(s.DropProb))
	}
	if s.SpikeProb > 0 {
		add("tspike=%s:%s", trimFloat(s.SpikeProb), trimFloat(s.SpikeMag))
	}
	for _, w := range sortedWindows(s.Stuck) {
		add("tstuck=%s", w)
	}
	for _, w := range sortedWindows(s.Blackout) {
		add("tblackout=%s", w)
	}
	for _, c := range sortedCrashes(s.Crashes) {
		add("crash=%s+%d", c.At, c.Epochs)
	}
	if s.MissProb > 0 {
		add("miss=%s", trimFloat(s.MissProb))
	}
	for _, w := range sortedWindows(s.Burst) {
		add("oobburst=%s", w)
	}
	if s.LatencyScale != 0 && s.LatencyScale != 1 {
		add("ooblat=%s", trimFloat(s.LatencyScale))
	}
	for _, k := range sortedKills(s.Kills) {
		add("kill=%d@%s", k.Servers, k.Window)
	}
	if s.Stragglers > 0 && s.StragglerFactor > 1 {
		add("slow=%d:%s", s.Stragglers, trimFloat(s.StragglerFactor))
	}
	for _, d := range sortedKills(s.Drains) {
		add("drain=%d@%s", d.Servers, d.Window)
	}
	return strings.Join(items, ",")
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func sortedWindows(ws []Window) []Window {
	out := append([]Window(nil), ws...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Dur < out[b].Dur
	})
	return out
}

func sortedCrashes(cs []Crash) []Crash {
	out := append([]Crash(nil), cs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Epochs < out[b].Epochs
	})
	return out
}

func sortedKills(ks []Kill) []Kill {
	out := append([]Kill(nil), ks...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Servers < out[b].Servers
	})
	return out
}

func parseFloat(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("bad number %q", val)
	}
	return f, nil
}

func parseProb(val string) (float64, error) {
	p, err := parseFloat(val)
	if err != nil {
		return 0, err
	}
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("probability %v outside [0,1)", p)
	}
	return p, nil
}

// parsePair parses "A:B" into two floats.
func parsePair(val string) (float64, float64, error) {
	a, b, ok := strings.Cut(val, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q is not A:B", val)
	}
	fa, err := parseFloat(a)
	if err != nil {
		return 0, 0, err
	}
	fb, err := parseFloat(b)
	if err != nil {
		return 0, 0, err
	}
	return fa, fb, nil
}

// parseWindow parses "START+DUR" with Go duration syntax.
func parseWindow(val string) (Window, error) {
	start, dur, ok := strings.Cut(val, "+")
	if !ok {
		return Window{}, fmt.Errorf("%q is not START+DUR", val)
	}
	ds, err := time.ParseDuration(start)
	if err != nil {
		return Window{}, fmt.Errorf("bad start: %w", err)
	}
	dd, err := time.ParseDuration(dur)
	if err != nil {
		return Window{}, fmt.Errorf("bad duration: %w", err)
	}
	return Window{Start: ds, Dur: dd}, nil
}

func appendWindow(ws *[]Window, val string) error {
	w, err := parseWindow(val)
	if err != nil {
		return err
	}
	*ws = append(*ws, w)
	return nil
}

// parseCrash parses "START+N" where N is an epoch count.
func parseCrash(val string) (Crash, error) {
	start, epochs, ok := strings.Cut(val, "+")
	if !ok {
		return Crash{}, fmt.Errorf("%q is not START+EPOCHS", val)
	}
	at, err := time.ParseDuration(start)
	if err != nil {
		return Crash{}, fmt.Errorf("bad start: %w", err)
	}
	n, err := strconv.Atoi(epochs)
	if err != nil {
		return Crash{}, fmt.Errorf("bad epoch count: %w", err)
	}
	return Crash{At: at, Epochs: n}, nil
}

// parseKill parses "K@START+DUR".
func parseKill(val string) (Kill, error) {
	count, win, ok := strings.Cut(val, "@")
	if !ok {
		return Kill{}, fmt.Errorf("%q is not K@START+DUR", val)
	}
	k, err := strconv.Atoi(count)
	if err != nil {
		return Kill{}, fmt.Errorf("bad server count: %w", err)
	}
	w, err := parseWindow(win)
	if err != nil {
		return Kill{}, err
	}
	return Kill{Servers: k, Window: w}, nil
}

// --- runtime ---

// Counts aggregates how many faults of each class were actually injected,
// for run reports and reconciliation against trace events.
type Counts struct {
	TelemetryLost   int // dropped or blacked-out samples
	TelemetryStuck  int // samples frozen by a stuck window
	TelemetrySpiked int // samples with spike noise applied
	CtrlCrashTicks  int // epochs the controller was down
	CtrlMissedTicks int // isolated missed control ticks
	OOBBurstFails   int // commands failed by a burst window
}

// Injector is the runtime of one Spec on one simulated row. All randomness
// comes from streams handed in at construction (the engine's named
// streams), so runs are deterministic per (seed, spec). A nil *Injector
// injects nothing and every method is safe to call on it.
//
// The injector is passive: it never schedules events or touches simulation
// state; the row queries it at its own decision points.
type Injector struct {
	spec     Spec
	telemRNG *rand.Rand
	ctrlRNG  *rand.Rand

	dead      [][]int // node indices killed by each Kill window, precomputed
	draining  [][]int // node indices drained by each Drain window, precomputed
	straggler map[int]bool

	counts Counts
}

// New builds an Injector for a row of servers nodes. rnd returns a named
// deterministic stream (pass the sim engine's Rand method); the injector
// draws the streams "faults/telemetry", "faults/controller", and
// "faults/servers". It returns nil — the disabled injector — when the spec
// injects nothing, so construction is safe to do unconditionally.
func New(spec Spec, servers int, rnd func(name string) *rand.Rand) *Injector {
	if !spec.Enabled() {
		return nil
	}
	inj := &Injector{
		spec:      spec,
		telemRNG:  rnd("faults/telemetry"),
		ctrlRNG:   rnd("faults/controller"),
		straggler: map[int]bool{},
	}
	// Pre-draw the victim sets so per-tick queries are RNG-free: a stable
	// permutation of node indices, consumed first by stragglers, then by
	// each kill window in spec order.
	perm := rnd("faults/servers").Perm(servers)
	next := 0
	take := func(n int) []int {
		if n > servers {
			n = servers
		}
		out := make([]int, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, perm[next%servers])
			next++
		}
		return out
	}
	for _, idx := range take(spec.Stragglers) {
		inj.straggler[idx] = true
	}
	for _, k := range spec.Kills {
		inj.dead = append(inj.dead, take(k.Servers))
	}
	// Drain victims draw after every pre-existing consumer, so adding a
	// drain action to a spec leaves the straggler and kill victim sets —
	// and therefore every existing scenario — byte-identical.
	for _, d := range spec.Drains {
		inj.draining = append(inj.draining, take(d.Servers))
	}
	return inj
}

// Spec returns the injector's spec (zero for a nil injector).
func (inj *Injector) Spec() Spec {
	if inj == nil {
		return Spec{}
	}
	return inj.spec
}

// Counts returns the injected-fault tallies so far.
func (inj *Injector) Counts() Counts {
	if inj == nil {
		return Counts{}
	}
	return inj.counts
}

func inWindows(ws []Window, t time.Duration) bool {
	for _, w := range ws {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// Telemetry passes one row-manager sample through the telemetry fault
// model. trueUtil is the physically measured utilization; last is the
// previous reading delivered to the controller (used by stuck-at windows)
// and haveLast reports whether one exists. It returns the possibly
// corrupted reading and whether the sample was delivered at all.
func (inj *Injector) Telemetry(now time.Duration, trueUtil, last float64, haveLast bool) (float64, bool) {
	if inj == nil {
		return trueUtil, true
	}
	s := inj.spec
	if inWindows(s.Blackout, now) {
		inj.counts.TelemetryLost++
		return 0, false
	}
	if s.DropProb > 0 && inj.telemRNG.Float64() < s.DropProb {
		inj.counts.TelemetryLost++
		return 0, false
	}
	if haveLast && inWindows(s.Stuck, now) {
		inj.counts.TelemetryStuck++
		return last, true
	}
	if s.SpikeProb > 0 && inj.telemRNG.Float64() < s.SpikeProb {
		inj.counts.TelemetrySpiked++
		// Symmetric noise: downward spikes are as dangerous as upward ones
		// (they can uncap a row that is actually hot).
		return trueUtil * (1 + s.SpikeMag*(2*inj.telemRNG.Float64()-1)), true
	}
	return trueUtil, true
}

// ControllerDown reports whether the controller is inside a crash outage at
// now. epoch is the telemetry interval, which converts Crash.Epochs into a
// window.
func (inj *Injector) ControllerDown(now, epoch time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, c := range inj.spec.Crashes {
		if now >= c.At && now < c.At+time.Duration(c.Epochs)*epoch {
			inj.counts.CtrlCrashTicks++
			return true
		}
	}
	return false
}

// MissedTick draws whether the controller misses this control tick.
func (inj *Injector) MissedTick() bool {
	if inj == nil || inj.spec.MissProb == 0 {
		return false
	}
	if inj.ctrlRNG.Float64() < inj.spec.MissProb {
		inj.counts.CtrlMissedTicks++
		return true
	}
	return false
}

// OOBBurstFailure reports whether a command issued at now is doomed by a
// burst-failure window (it will fail silently at landing, like §3.3's
// failures, regardless of the baseline failure probability).
func (inj *Injector) OOBBurstFailure(now time.Duration) bool {
	if inj == nil {
		return false
	}
	if inWindows(inj.spec.Burst, now) {
		inj.counts.OOBBurstFails++
		return true
	}
	return false
}

// OOBLatency applies the spec's latency inflation to the base actuation
// latency.
func (inj *Injector) OOBLatency(base time.Duration) time.Duration {
	if inj == nil || inj.spec.LatencyScale == 0 || inj.spec.LatencyScale == 1 {
		return base
	}
	return time.Duration(float64(base) * inj.spec.LatencyScale)
}

// ServerDead reports whether node idx is inside a kill window at now.
func (inj *Injector) ServerDead(idx int, now time.Duration) bool {
	if inj == nil {
		return false
	}
	for ki, k := range inj.spec.Kills {
		if !k.Contains(now) {
			continue
		}
		for _, victim := range inj.dead[ki] {
			if victim == idx {
				return true
			}
		}
	}
	return false
}

// ServerDraining reports whether node idx is inside a graceful-drain
// (maintenance) window at now.
func (inj *Injector) ServerDraining(idx int, now time.Duration) bool {
	if inj == nil {
		return false
	}
	for di, d := range inj.spec.Drains {
		if !d.Contains(now) {
			continue
		}
		for _, victim := range inj.draining[di] {
			if victim == idx {
				return true
			}
		}
	}
	return false
}

// SlowFactor returns the work stretch for node idx (1 when not a
// straggler).
func (inj *Injector) SlowFactor(idx int) float64 {
	if inj == nil || !inj.straggler[idx] {
		return 1
	}
	return inj.spec.StragglerFactor
}
