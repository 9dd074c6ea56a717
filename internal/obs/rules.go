package obs

import (
	_ "embed"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// This file is the declarative recording/alert rules engine evaluated in
// sim time against the TSDB. The grammar is one rule per line:
//
//	alert  NAME EXPR CMP RHS [for DUR] [severity WORD]
//	record NAME EXPR
//
//	EXPR := SIGNAL
//	      | rate(SIGNAL,DUR)                     per-second increase
//	      | burn(GOOD,TOTAL,TARGET,SHORT,LONG)   multi-window SLO burn rate
//	CMP  := > | >= | < | <=
//	RHS  := NUMBER | NUMBER*SIGNAL | SIGNAL
//
// Signals are TSDB series names (registered by the cluster wiring; a rule
// binds lazily, so load order does not matter). `for DUR` requires the
// condition to hold continuously before firing, matching the Prometheus
// semantics operators already know. burn() evaluates the SRE multiwindow
// burn-rate: (1 - good/total) / (1 - target) over each window, taking the
// min of the short and long windows so `burn(...) > 6` expresses
// "burning ≥6x on BOTH windows" with a single comparison.
//
// Alerts emit KindAlertFire / KindAlertResolve events into the run trace
// (with the rule's condition text as the reason), accumulate a per-rule
// summary for the run report, and — because evaluation happens on the
// telemetry tick with `for 0` semantics counted one step per active tick
// — a threshold rule's active seconds reconcile exactly with
// stats.Series.TimeAbove on the underlying full-resolution trace.

// DefaultRules is the committed default operator ruleset, selected with
// `polca-sim -rules default`.
//
//go:embed default.rules
var DefaultRules string

// CmpOp is a rule comparison operator.
type CmpOp uint8

const (
	CmpGT CmpOp = iota
	CmpGE
	CmpLT
	CmpLE
)

func (op CmpOp) String() string {
	switch op {
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	}
	return "?"
}

func (op CmpOp) eval(lhs, rhs float64) bool {
	switch op {
	case CmpGT:
		return lhs > rhs
	case CmpGE:
		return lhs >= rhs
	case CmpLT:
		return lhs < rhs
	case CmpLE:
		return lhs <= rhs
	}
	return false
}

type exprKind uint8

const (
	exprSignal exprKind = iota
	exprRate
	exprBurn
)

// ruleExpr is a parsed left-hand side.
type ruleExpr struct {
	kind        exprKind
	sig         string // signal; rate signal; burn good-counter
	sig2        string // burn total-counter
	short, long time.Duration
	target      float64
	text        string // canonical rendering
}

// RuleSpec is one parsed rule.
type RuleSpec struct {
	Name     string
	Record   bool
	Expr     ruleExpr
	Op       CmpOp
	RHSNum   float64
	RHSSig   string
	For      time.Duration
	Severity string
	Cond     string // canonical condition text, used as the event reason
}

// RuleSet is a parsed rules file.
type RuleSet struct {
	Specs []RuleSpec
}

// ParseRules parses the rules text format. Blank lines and #-comments are
// ignored. Errors carry the line number.
func ParseRules(src string) (*RuleSet, error) {
	set := &RuleSet{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		spec, err := parseRule(fields)
		if err != nil {
			return nil, fmt.Errorf("rules line %d: %w", ln+1, err)
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("rules line %d: duplicate rule name %q", ln+1, spec.Name)
		}
		seen[spec.Name] = true
		set.Specs = append(set.Specs, spec)
	}
	if len(set.Specs) == 0 {
		return nil, fmt.Errorf("rules: no rules defined")
	}
	return set, nil
}

func parseRule(fields []string) (RuleSpec, error) {
	var spec RuleSpec
	switch fields[0] {
	case "record":
		if len(fields) != 3 {
			return spec, fmt.Errorf("record wants: record NAME EXPR")
		}
		expr, err := parseExpr(fields[2])
		if err != nil {
			return spec, err
		}
		spec = RuleSpec{Name: fields[1], Record: true, Expr: expr, Cond: expr.text}
		return spec, nil
	case "alert":
		// alert NAME EXPR CMP RHS [for DUR] [severity WORD]
		if len(fields) < 5 {
			return spec, fmt.Errorf("alert wants: alert NAME EXPR CMP RHS [for DUR] [severity WORD]")
		}
		expr, err := parseExpr(fields[2])
		if err != nil {
			return spec, err
		}
		op, err := parseCmp(fields[3])
		if err != nil {
			return spec, err
		}
		spec = RuleSpec{Name: fields[1], Expr: expr, Op: op, Severity: "warn"}
		if err := parseRHS(&spec, fields[4]); err != nil {
			return spec, err
		}
		rest := fields[5:]
		for len(rest) > 0 {
			switch rest[0] {
			case "for":
				if len(rest) < 2 {
					return spec, fmt.Errorf("for wants a duration")
				}
				d, err := time.ParseDuration(rest[1])
				if err != nil || d < 0 {
					return spec, fmt.Errorf("bad for-duration %q", rest[1])
				}
				spec.For = d
				rest = rest[2:]
			case "severity":
				if len(rest) < 2 {
					return spec, fmt.Errorf("severity wants a word")
				}
				spec.Severity = rest[1]
				rest = rest[2:]
			default:
				return spec, fmt.Errorf("unexpected token %q", rest[0])
			}
		}
		spec.Cond = condText(spec)
		return spec, nil
	}
	return spec, fmt.Errorf("unknown directive %q (want alert or record)", fields[0])
}

func parseCmp(tok string) (CmpOp, error) {
	switch tok {
	case ">":
		return CmpGT, nil
	case ">=":
		return CmpGE, nil
	case "<":
		return CmpLT, nil
	case "<=":
		return CmpLE, nil
	}
	return 0, fmt.Errorf("bad comparison %q", tok)
}

func parseExpr(tok string) (ruleExpr, error) {
	if strings.HasPrefix(tok, "rate(") {
		if !strings.HasSuffix(tok, ")") {
			return ruleExpr{}, fmt.Errorf("unterminated rate() in %q", tok)
		}
		args := splitArgs(tok[len("rate(") : len(tok)-1])
		if len(args) != 2 {
			return ruleExpr{}, fmt.Errorf("rate wants rate(SIGNAL,DUR)")
		}
		d, err := time.ParseDuration(args[1])
		if err != nil || d <= 0 {
			return ruleExpr{}, fmt.Errorf("bad rate window %q", args[1])
		}
		e := ruleExpr{kind: exprRate, sig: args[0], short: d}
		e.text = "rate(" + args[0] + "," + args[1] + ")"
		return e, nil
	}
	if strings.HasPrefix(tok, "burn(") {
		if !strings.HasSuffix(tok, ")") {
			return ruleExpr{}, fmt.Errorf("unterminated burn() in %q", tok)
		}
		args := splitArgs(tok[len("burn(") : len(tok)-1])
		if len(args) != 5 {
			return ruleExpr{}, fmt.Errorf("burn wants burn(GOOD,TOTAL,TARGET,SHORT,LONG)")
		}
		target, err := strconv.ParseFloat(args[2], 64)
		if err != nil || target <= 0 || target >= 1 {
			return ruleExpr{}, fmt.Errorf("bad burn target %q (want 0<target<1)", args[2])
		}
		short, err := time.ParseDuration(args[3])
		if err != nil || short <= 0 {
			return ruleExpr{}, fmt.Errorf("bad burn short window %q", args[3])
		}
		long, err := time.ParseDuration(args[4])
		if err != nil || long <= short {
			return ruleExpr{}, fmt.Errorf("bad burn long window %q (must exceed short)", args[4])
		}
		e := ruleExpr{kind: exprBurn, sig: args[0], sig2: args[1], target: target, short: short, long: long}
		e.text = "burn(" + strings.Join(args, ",") + ")"
		return e, nil
	}
	if strings.ContainsAny(tok, "()") {
		return ruleExpr{}, fmt.Errorf("unknown function in %q", tok)
	}
	return ruleExpr{kind: exprSignal, sig: tok, text: tok}, nil
}

// splitArgs splits a function argument list on commas that are not inside
// a {label="v"} block (series names may carry labels).
func splitArgs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

func parseRHS(spec *RuleSpec, tok string) error {
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		spec.RHSNum = v
		return nil
	}
	if i := strings.IndexByte(tok, '*'); i > 0 {
		v, err := strconv.ParseFloat(tok[:i], 64)
		if err != nil {
			return fmt.Errorf("bad rhs %q (want NUMBER, NUMBER*SIGNAL, or SIGNAL)", tok)
		}
		if tok[i+1:] == "" {
			return fmt.Errorf("bad rhs %q: empty signal after *", tok)
		}
		spec.RHSNum, spec.RHSSig = v, tok[i+1:]
		return nil
	}
	spec.RHSNum, spec.RHSSig = 1, tok
	return nil
}

func condText(spec RuleSpec) string {
	var b strings.Builder
	b.WriteString(spec.Expr.text)
	b.WriteByte(' ')
	b.WriteString(spec.Op.String())
	b.WriteByte(' ')
	if spec.RHSSig == "" {
		b.WriteString(strconv.FormatFloat(spec.RHSNum, 'g', -1, 64))
	} else {
		if spec.RHSNum != 1 {
			b.WriteString(strconv.FormatFloat(spec.RHSNum, 'g', -1, 64))
			b.WriteByte('*')
		}
		b.WriteString(spec.RHSSig)
	}
	if spec.For > 0 {
		b.WriteString(" for ")
		b.WriteString(spec.For.String())
	}
	return b.String()
}

// AlertState is the runtime state and end-of-run summary of one rule.
type AlertState struct {
	Spec RuleSpec

	// Lazily bound series handles (signals may register after the engine).
	sig, sig2, rhsSig, out *TSSeries

	pending      bool
	pendingSince time.Duration
	active       bool
	firedAt      time.Duration

	// Summary accumulators. ActiveSec counts one evaluation step per tick
	// the alert was active (including the firing tick), which is what
	// makes a `for 0` threshold rule reconcile exactly with
	// stats.Series.TimeAbove. CondSec counts ticks where the raw
	// condition held regardless of `for` state.
	Fires      int
	ActiveSec  float64
	CondSec    float64
	LongestSec float64
	episodeSec float64
	LastValue  float64
	HasValue   bool
	NoData     int
}

// Active reports whether the alert is currently firing.
func (a *AlertState) Active() bool { return a.active }

// Rules evaluates a RuleSet against a TSDB on every telemetry tick. A nil
// *Rules is a valid disabled engine.
type Rules struct {
	db       *TSDB
	tracer   *Tracer
	states   []*AlertState
	lastEval time.Duration
	step     time.Duration
	ran      bool
	finished bool
}

// NewRules binds a parsed rule set to a TSDB. Alert events go to tracer
// (usually the run's; nil discards events but keeps the summary).
func NewRules(db *TSDB, set *RuleSet, tracer *Tracer) *Rules {
	r := &Rules{db: db, tracer: tracer, step: db.Step()}
	for _, spec := range set.Specs {
		st := &AlertState{Spec: spec}
		if spec.Record {
			st.out = db.Series(spec.Name, LevelRow, WithUnit("recorded"))
		}
		r.states = append(r.states, st)
	}
	return r
}

// Alerts returns the per-rule states (alert rules only), in file order.
func (r *Rules) Alerts() []*AlertState {
	if r == nil {
		return nil
	}
	out := make([]*AlertState, 0, len(r.states))
	for _, st := range r.states {
		if !st.Spec.Record {
			out = append(out, st)
		}
	}
	return out
}

// Eval evaluates every rule at simulated time now. Recording rules run
// first so alerts can reference recorded series within the same tick.
func (r *Rules) Eval(now time.Duration) {
	if r == nil {
		return
	}
	r.lastEval, r.ran = now, true
	for _, st := range r.states {
		if st.Spec.Record {
			r.evalRecord(st, now)
		}
	}
	for _, st := range r.states {
		if !st.Spec.Record {
			r.evalAlert(st, now)
		}
	}
}

// value resolves a rule expression at now. ok is false on missing signals
// or windows not yet retained — the rule holds state rather than firing
// on garbage.
func (r *Rules) value(st *AlertState, now time.Duration) (float64, bool) {
	e := &st.Spec.Expr
	if st.sig == nil {
		st.sig = r.db.Lookup(e.sig)
	}
	if st.sig == nil {
		return 0, false
	}
	switch e.kind {
	case exprSignal:
		v, ok := st.sig.Last()
		return v, ok
	case exprRate:
		d, ok := st.sig.DeltaOver(now, e.short)
		if !ok {
			return 0, false
		}
		return d / e.short.Seconds(), true
	case exprBurn:
		if st.sig2 == nil {
			st.sig2 = r.db.Lookup(e.sig2)
		}
		if st.sig2 == nil {
			return 0, false
		}
		short, ok := burnRate(st.sig, st.sig2, now, e.short, e.target)
		if !ok {
			return 0, false
		}
		long, ok := burnRate(st.sig, st.sig2, now, e.long, e.target)
		if !ok {
			return 0, false
		}
		// min(short, long): a single `> factor` comparison then expresses
		// the multiwindow AND ("burning fast on the long window AND still
		// burning on the short window", the SRE page condition).
		if short < long {
			return short, true
		}
		return long, true
	}
	return 0, false
}

// burnRate computes the error-budget burn rate over one window: the
// fraction of requests that violated the SLO, normalized by the budget
// (1-target). Burn 1.0 consumes the budget exactly at the sustainable
// rate; 6.0 burns it six times too fast.
func burnRate(good, total *TSSeries, now, window time.Duration, target float64) (float64, bool) {
	dg, ok := good.DeltaOver(now, window)
	if !ok {
		return 0, false
	}
	dt, ok := total.DeltaOver(now, window)
	if !ok {
		return 0, false
	}
	if dt <= 0 {
		return 0, true // no traffic: not burning
	}
	errFrac := 1 - dg/dt
	return errFrac / (1 - target), true
}

func (r *Rules) evalRecord(st *AlertState, now time.Duration) {
	v, ok := r.value(st, now)
	if !ok {
		st.NoData++
		return
	}
	st.LastValue, st.HasValue = v, true
	st.out.Observe(now, v)
}

func (r *Rules) evalAlert(st *AlertState, now time.Duration) {
	v, ok := r.value(st, now)
	cond := false
	if !ok {
		st.NoData++
	} else {
		st.LastValue, st.HasValue = v, true
		rhs := st.Spec.RHSNum
		if st.Spec.RHSSig != "" {
			if st.rhsSig == nil {
				st.rhsSig = r.db.Lookup(st.Spec.RHSSig)
			}
			rv, rok := st.rhsSig.Last()
			if !rok {
				st.NoData++
				r.step2(st, false, now)
				return
			}
			rhs *= rv
		}
		cond = st.Spec.Op.eval(v, rhs)
	}
	r.step2(st, cond, now)
}

// step2 advances the fire/resolve state machine one tick.
func (r *Rules) step2(st *AlertState, cond bool, now time.Duration) {
	stepSec := r.step.Seconds()
	if cond {
		st.CondSec += stepSec
	}
	switch {
	case cond && !st.active:
		if !st.pending {
			st.pending, st.pendingSince = true, now
		}
		if now-st.pendingSince >= st.Spec.For {
			st.pending = false
			st.active, st.firedAt = true, now
			st.Fires++
			st.episodeSec = 0
			r.emit(KindAlertFire, st, now, st.LastValue)
		}
	case !cond && st.pending:
		st.pending = false
	case !cond && st.active:
		st.active = false
		r.emit(KindAlertResolve, st, now, st.episodeSec)
	}
	if st.active {
		st.ActiveSec += stepSec
		st.episodeSec += stepSec
		if st.episodeSec > st.LongestSec {
			st.LongestSec = st.episodeSec
		}
	}
}

func (r *Rules) emit(kind Kind, st *AlertState, now time.Duration, value float64) {
	r.tracer.Emit(Event{
		At:     now,
		Kind:   kind,
		Server: -1,
		Pool:   PoolNone,
		Value:  value,
		Reason: st.Spec.Cond,
		Label:  st.Spec.Name,
	})
}

// FinishTime returns the simulated time Finish resolves still-active
// alerts at — one evaluation step past the last Eval — or 0 if the engine
// never evaluated. Callers that keep simulating past the last telemetry
// tick (the drain phase) can schedule Finish at this time so trace events
// stay timestamp-ordered.
func (r *Rules) FinishTime() time.Duration {
	if r == nil || !r.ran {
		return 0
	}
	return r.lastEval + r.step
}

// Finish closes alerts still active at end of run: each emits a resolve
// one evaluation step after the last tick (the first instant the
// condition is no longer observed), so offline episode reconstruction
// from the trace reconciles exactly. Idempotent.
func (r *Rules) Finish() {
	if r == nil || r.finished || !r.ran {
		return
	}
	r.finished = true
	end := r.lastEval + r.step
	for _, st := range r.states {
		if st.active {
			st.active = false
			r.emit(KindAlertResolve, st, end, st.episodeSec)
		}
		st.pending = false
	}
}

// WriteSummary renders the per-alert summary table for the run report.
func (r *Rules) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	alerts := r.Alerts()
	if len(alerts) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "  %-18s %-9s %6s %10s %10s %10s  %s\n",
		"alert", "severity", "fires", "active", "longest", "last", "condition"); err != nil {
		return err
	}
	for _, st := range alerts {
		last := "no data"
		if st.HasValue {
			last = strconv.FormatFloat(st.LastValue, 'g', 4, 64)
		}
		if _, err := fmt.Fprintf(w, "  %-18s %-9s %6d %10s %10s %10s  %s\n",
			st.Spec.Name, st.Spec.Severity, st.Fires,
			fmtSec(st.ActiveSec), fmtSec(st.LongestSec), last, st.Spec.Cond); err != nil {
			return err
		}
	}
	return nil
}

func fmtSec(sec float64) string {
	return (time.Duration(sec * float64(time.Second))).Round(time.Second).String()
}
