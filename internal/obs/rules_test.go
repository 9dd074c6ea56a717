package obs

import (
	"strings"
	"testing"
	"time"
)

// rulesHarness is one TSDB + engine + capturing tracer.
type rulesHarness struct {
	db *TSDB
	rl *Rules
	tr *Tracer
}

func newRulesHarness(t *testing.T, src string) *rulesHarness {
	t.Helper()
	set, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	db := NewTSDB(TSDBConfig{Step: time.Second, Windows: []time.Duration{10 * time.Second}})
	tr := NewTracer()
	return &rulesHarness{db: db, rl: NewRules(db, set, tr), tr: tr}
}

// alertEvents filters the trace down to fire/resolve events.
func (h *rulesHarness) alertEvents() []Event {
	var out []Event
	for _, ev := range h.tr.Events() {
		if ev.Kind == KindAlertFire || ev.Kind == KindAlertResolve {
			out = append(out, ev)
		}
	}
	return out
}

func TestParseRulesErrors(t *testing.T) {
	cases := []struct{ src, wantErr string }{
		{"", "no rules"},
		{"# only a comment\n", "no rules"},
		{"gauge x row.util", "unknown directive"},
		{"alert a row.util", "alert wants"},
		{"alert a row.util ~ 1", "bad comparison"},
		{"alert a row.util > 1 for nope", "bad for-duration"},
		{"alert a row.util > 1 for -5s", "bad for-duration"},
		{"alert a row.util > 1 bogus", "unexpected token"},
		{"alert a row.util > 1\nalert a row.util > 2", "duplicate rule name"},
		{"alert a rate(row.x) > 1", "rate wants"},
		{"alert a rate(row.x,0s) > 1", "bad rate window"},
		{"alert a rate(row.x,5s > 1", "unterminated rate"},
		{"alert a burn(g,t,1.5,5m,1h) > 6", "bad burn target"},
		{"alert a burn(g,t,0.9,5m,1m) > 6", "bad burn long window"},
		{"alert a burn(g,t,0.9,x,1h) > 6", "bad burn short window"},
		{"alert a sqrt(row.x) > 1", "unknown function"},
		{"alert a row.util > x*y", "bad rhs"},
		{"alert a row.util > 2*", "empty signal after *"},
		{"record r", "record wants"},
	}
	for _, tc := range cases {
		_, err := ParseRules(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseRules(%q) err = %v, want containing %q", tc.src, err, tc.wantErr)
		}
	}
	// Errors carry line numbers.
	if _, err := ParseRules("alert ok row.util > 1\nalert bad row.util ~ 1"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2", err)
	}
}

func TestParseDefaultRules(t *testing.T) {
	set, err := ParseRules(DefaultRules)
	if err != nil {
		t.Fatalf("committed default ruleset does not parse: %v", err)
	}
	names := map[string]bool{}
	for _, s := range set.Specs {
		names[s.Name] = true
	}
	for _, want := range []string{"breaker-near", "breaker-breach", "ttft-slo-burn"} {
		if !names[want] {
			t.Errorf("default ruleset missing %q", want)
		}
	}
}

func TestThresholdFireAndResolve(t *testing.T) {
	h := newRulesHarness(t, "alert breach row.util > 1 severity page")
	util := h.db.Series("row.util", LevelRow)
	for i, v := range []float64{0.5, 1.2, 1.3, 0.8} {
		at := time.Duration(i+1) * time.Second
		util.Observe(at, v)
		h.rl.Eval(at)
	}
	st := h.rl.Alerts()[0]
	if st.Fires != 1 || st.ActiveSec != 2 || st.CondSec != 2 || st.LongestSec != 2 {
		t.Errorf("fires=%d active=%g cond=%g longest=%g, want 1/2/2/2",
			st.Fires, st.ActiveSec, st.CondSec, st.LongestSec)
	}
	if st.Active() {
		t.Error("still active after sub-threshold tick")
	}
	evs := h.alertEvents()
	if len(evs) != 2 {
		t.Fatalf("alert events = %d, want 2", len(evs))
	}
	fire, res := evs[0], evs[1]
	if fire.Kind != KindAlertFire || fire.At != 2*time.Second || fire.Value != 1.2 ||
		fire.Label != "breach" || fire.Reason != "row.util > 1" {
		t.Errorf("fire event = %+v", fire)
	}
	if res.Kind != KindAlertResolve || res.At != 4*time.Second || res.Value != 2 {
		t.Errorf("resolve event = %+v (value is episode seconds)", res)
	}
}

func TestForDurationRequiresContinuousBreach(t *testing.T) {
	h := newRulesHarness(t, "alert breach row.util > 1 for 2s")
	util := h.db.Series("row.util", LevelRow)
	// Two above, a dip (resets pending), then three above → fires on the
	// third consecutive tick (2s after pending started).
	vals := []float64{1.5, 1.5, 0.5, 1.5, 1.5, 1.5}
	for i, v := range vals {
		at := time.Duration(i+1) * time.Second
		util.Observe(at, v)
		h.rl.Eval(at)
	}
	st := h.rl.Alerts()[0]
	if st.Fires != 1 || !st.Active() {
		t.Fatalf("fires=%d active=%v, want 1 fire still active", st.Fires, st.Active())
	}
	evs := h.alertEvents()
	if len(evs) != 1 || evs[0].At != 6*time.Second {
		t.Errorf("fire at %v, want 6s (2s of continuous breach from t=4s)", evs[0].At)
	}
	// CondSec counts every breaching tick, including pre-fire pending ones.
	if st.CondSec != 5 {
		t.Errorf("CondSec = %g, want 5", st.CondSec)
	}
}

func TestRHSSignalScaling(t *testing.T) {
	h := newRulesHarness(t, "alert near row.power > 0.9*row.breaker")
	power := h.db.Series("row.power", LevelRow)
	breaker := h.db.Series("row.breaker", LevelRow)
	breaker.Observe(time.Second, 1000)
	power.Observe(time.Second, 850)
	h.rl.Eval(time.Second)
	if st := h.rl.Alerts()[0]; st.Active() {
		t.Error("fired below 0.9*breaker")
	}
	power.Observe(2*time.Second, 950)
	breaker.Observe(2*time.Second, 1000)
	h.rl.Eval(2 * time.Second)
	if st := h.rl.Alerts()[0]; !st.Active() {
		t.Error("did not fire above 0.9*breaker")
	}
}

func TestMissingSignalsHoldState(t *testing.T) {
	h := newRulesHarness(t, "alert ghost row.nope > 1\nalert half row.util > 2*row.nope")
	h.db.Series("row.util", LevelRow).Observe(time.Second, 5)
	h.rl.Eval(time.Second)
	for _, st := range h.rl.Alerts() {
		if st.Active() || st.Fires != 0 {
			t.Errorf("%s fired with missing signal", st.Spec.Name)
		}
		if st.NoData == 0 {
			t.Errorf("%s did not count no-data", st.Spec.Name)
		}
	}
	if evs := h.alertEvents(); len(evs) != 0 {
		t.Errorf("events on missing signals: %+v", evs)
	}
}

func TestRateRule(t *testing.T) {
	h := newRulesHarness(t, "alert storm rate(row.brake_total,10s) > 0.5")
	ctr := h.db.Series("row.brake_total", LevelRow, CounterSeries())
	st := h.rl.Alerts()[0]
	firedAt := time.Duration(0)
	for i := 1; i <= 30; i++ {
		at := time.Duration(i) * time.Second
		ctr.Add(at, 1) // 1/s, well above 0.5/s
		h.rl.Eval(at)
		if st.Active() && firedAt == 0 {
			firedAt = at
		}
	}
	if firedAt == 0 {
		t.Fatal("rate rule never fired at 1/s against a 0.5/s threshold")
	}
	// Before the 10s window is retained the rule holds state (no data).
	if firedAt < 10*time.Second {
		t.Errorf("fired at %v, before the rate window was observable", firedAt)
	}
	if st.NoData == 0 {
		t.Error("expected no-data ticks while the window was unretained")
	}
}

func TestBurnRateComputation(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second, Windows: []time.Duration{10 * time.Second}})
	good := db.Series("ok", LevelRow, CounterSeries())
	total := db.Series("tot", LevelRow, CounterSeries())
	// 20 ticks, 10 requests each; 2 good → 80% errors against a 90%
	// target: burn = 0.8/0.1 = 8.
	for i := 1; i <= 20; i++ {
		at := time.Duration(i) * time.Second
		good.Add(at, 2)
		total.Add(at, 10)
	}
	v, ok := burnRate(good, total, 20*time.Second, 10*time.Second, 0.9)
	if !ok || v < 8-1e-9 || v > 8+1e-9 {
		t.Errorf("burnRate = %v,%v, want 8,true", v, ok)
	}
	// No traffic in the window: burn 0, not unknown — idle systems do not
	// page.
	idleGood := db.Series("ok2", LevelRow, CounterSeries())
	idleTot := db.Series("tot2", LevelRow, CounterSeries())
	for i := 1; i <= 20; i++ {
		at := time.Duration(i) * time.Second
		idleGood.Add(at, 0)
		idleTot.Add(at, 0)
	}
	if v, ok := burnRate(idleGood, idleTot, 20*time.Second, 10*time.Second, 0.9); !ok || v != 0 {
		t.Errorf("idle burnRate = %v,%v, want 0,true", v, ok)
	}
}

func TestBurnRuleTakesMinOfWindows(t *testing.T) {
	// Short window burning, long window healthy → min stays low → no fire.
	// This is the multiwindow AND: a brief error spike alone cannot page.
	h := newRulesHarness(t, "alert slo burn(row.ok,row.tot,0.9,2s,10s) > 6")
	good := h.db.Series("row.ok", LevelRow, CounterSeries())
	total := h.db.Series("row.tot", LevelRow, CounterSeries())
	st := h.rl.Alerts()[0]
	for i := 1; i <= 40; i++ {
		at := time.Duration(i) * time.Second
		g := 10.0
		if i >= 39 { // 2-tick spike of total failure at the end
			g = 0
		}
		good.Add(at, g)
		total.Add(at, 10)
		h.rl.Eval(at)
	}
	if st.Fires != 0 {
		t.Errorf("short-window spike alone fired the multiwindow burn rule (last=%g)", st.LastValue)
	}
	// The evaluated value is min(short, long): short burns at 10, long at
	// 0.2/0.1*... — long window: 2 bad ticks of 10 → 20 errors / 100 total
	// over 10s = 0.2 err frac → burn 2.
	if st.LastValue >= 6 {
		t.Errorf("LastValue = %g, want < 6 (long window caps the burn)", st.LastValue)
	}
}

func TestRecordRuleFeedsSameTickAlerts(t *testing.T) {
	h := newRulesHarness(t, `
record row.req_rate rate(row.req_total,10s)
alert hot row.req_rate > 0.5
`)
	ctr := h.db.Series("row.req_total", LevelRow, CounterSeries())
	var fired bool
	for i := 1; i <= 30; i++ {
		at := time.Duration(i) * time.Second
		ctr.Add(at, 1)
		h.rl.Eval(at)
		fired = fired || h.rl.Alerts()[0].Active()
	}
	if !fired {
		t.Fatal("alert on recorded series never fired")
	}
	if rec := h.db.Lookup("row.req_rate"); rec == nil {
		t.Fatal("recording rule did not register its output series")
	} else if v, ok := rec.Last(); !ok || v != 1 {
		t.Errorf("recorded rate = %v,%v, want 1,true", v, ok)
	}
}

// TestFinishReconciliation pins the exact-reconciliation contract: every
// fire is paired with a resolve whose value is the episode's active
// seconds, still-active alerts resolve one step past the last eval, and
// the resolve values sum to ActiveSec — so offline reconstruction from the
// trace (polca-analyze -alerts) agrees with the in-run summary exactly.
func TestFinishReconciliation(t *testing.T) {
	h := newRulesHarness(t, "alert breach row.util > 1")
	util := h.db.Series("row.util", LevelRow)
	vals := []float64{2, 2, 0.5, 2, 2, 2} // two episodes; second unresolved
	for i, v := range vals {
		at := time.Duration(i+1) * time.Second
		util.Observe(at, v)
		h.rl.Eval(at)
	}
	h.rl.Finish()
	h.rl.Finish() // idempotent

	st := h.rl.Alerts()[0]
	evs := h.alertEvents()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want fire/resolve/fire/resolve", len(evs))
	}
	if evs[3].At != 7*time.Second {
		t.Errorf("end-of-run resolve at %v, want lastEval+step = 7s", evs[3].At)
	}
	var resolvedSec float64
	for _, ev := range evs {
		if ev.Kind == KindAlertResolve {
			resolvedSec += ev.Value
		}
	}
	if resolvedSec != st.ActiveSec {
		t.Errorf("sum of resolve episode values = %g, ActiveSec = %g; must reconcile exactly",
			resolvedSec, st.ActiveSec)
	}
	if st.Fires != 2 || st.ActiveSec != 5 || st.LongestSec != 3 {
		t.Errorf("fires=%d active=%g longest=%g, want 2/5/3", st.Fires, st.ActiveSec, st.LongestSec)
	}
}

func TestFinishWithoutEvalIsSilent(t *testing.T) {
	h := newRulesHarness(t, "alert breach row.util > 1")
	h.rl.Finish()
	if evs := h.alertEvents(); len(evs) != 0 {
		t.Errorf("Finish before any Eval emitted events: %+v", evs)
	}
}

func TestRulesNilSafety(t *testing.T) {
	var r *Rules
	r.Eval(time.Second)
	r.Finish()
	if r.Alerts() != nil {
		t.Error("nil Rules Alerts not nil")
	}
	if err := r.WriteSummary(nil); err != nil {
		t.Error(err)
	}
}

func TestWriteSummaryTable(t *testing.T) {
	h := newRulesHarness(t, "alert breach row.util > 1 severity page\nalert ghost row.nope > 1")
	util := h.db.Series("row.util", LevelRow)
	util.Observe(time.Second, 2)
	h.rl.Eval(time.Second)
	h.rl.Finish()
	var b strings.Builder
	if err := h.rl.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{"breach", "page", "row.util > 1", "ghost", "no data"} {
		if !strings.Contains(out, w) {
			t.Errorf("summary missing %q:\n%s", w, out)
		}
	}
}

// BenchmarkRuleEval is part of the CI benchmark trajectory: the default
// ruleset evaluated against live signals every telemetry tick must stay
// allocation-free and cheap relative to the tick itself.
func BenchmarkRuleEval(b *testing.B) {
	set, err := ParseRules(DefaultRules)
	if err != nil {
		b.Fatal(err)
	}
	db := NewTSDB(TSDBConfig{Step: 2 * time.Second})
	gauges := []*TSSeries{
		db.Series("row.power", LevelRow), db.Series("row.breaker", LevelRow),
		db.Series("row.util", LevelRow), db.Series("row.queue", LevelRow),
		db.Series("row.kv", LevelRow),
	}
	counters := []*TSSeries{
		db.Series("row.brake_total", LevelRow, CounterSeries()),
		db.Series("row.oob_fail_total", LevelRow, CounterSeries()),
		db.Series("row.ttft_ok", LevelRow, CounterSeries()),
		db.Series("row.ttft_total", LevelRow, CounterSeries()),
		db.Series("row.req_total", LevelRow, CounterSeries()),
	}
	rl := NewRules(db, set, nil)
	// Warm far enough that every rate/burn window is retained.
	at := time.Duration(0)
	warm := int((2 * time.Hour) / (2 * time.Second))
	for i := 0; i < warm; i++ {
		at += 2 * time.Second
		for _, s := range gauges {
			s.Observe(at, 0.5)
		}
		for _, s := range counters {
			s.Add(at, 1)
		}
		rl.Eval(at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 2 * time.Second
		for _, s := range gauges {
			s.Observe(at, 0.5)
		}
		for _, s := range counters {
			s.Add(at, 1)
		}
		rl.Eval(at)
	}
}
