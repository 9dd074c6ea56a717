package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// DecisionSchema versions the decision-provenance JSONL wire format. PR 2's
// decision tracer (bare policy.threshold events) was v1 in spirit; v2
// records the full input snapshot each decision was made from, which is
// what makes offline counterfactual replay possible at all.
const DecisionSchema = "polca-decisions/v2"

// DecisionKind separates the two decision streams the row records.
type DecisionKind uint8

const (
	// DecTick is one controller telemetry epoch: the reading the policy
	// saw (or the loss/outage that replaced it), the guard/watchdog/brake
	// state in effect, and the pool locks the policy asked for.
	DecTick DecisionKind = iota + 1
	// DecRoute is one serve-mode router pick: the request being placed and
	// the per-replica queue/KV/cap snapshot the router chose from.
	DecRoute
)

var decisionKindNames = [...]string{
	DecTick:  "tick",
	DecRoute: "route",
}

// String returns the decision kind's wire name ("tick").
func (k DecisionKind) String() string {
	if int(k) < len(decisionKindNames) && decisionKindNames[k] != "" {
		return decisionKindNames[k]
	}
	return "unknown"
}

// ParseDecisionKind maps a wire name back to its DecisionKind.
func ParseDecisionKind(s string) (DecisionKind, bool) {
	for k, name := range decisionKindNames {
		if name == s && k != 0 {
			return DecisionKind(k), true
		}
	}
	return 0, false
}

// Decision is one recorded decision with its full input snapshot: a flat
// value type like Event, so recording costs only the recorder's amortized
// buffer growth. Tick and route decisions share the struct (one arena, one
// log) with kind-specific fields; unused fields stay zero.
type Decision struct {
	At   time.Duration // simulated time
	Kind DecisionKind

	// Tick inputs: TrueUtil is the physical row utilization the breaker
	// sees; Reading is what telemetry delivered to the controller this
	// epoch (valid only when Delivered). Exactly one of Delivered, Lost,
	// Down, Missed describes the epoch: a reading arrived, a loss-aware
	// controller was told telemetry was lost, the controller was crashed,
	// or the tick was silently missed. Reset marks the controller
	// restarting cold at this epoch (before any delivery).
	TrueUtil  float64
	Reading   float64
	Delivered bool
	Lost      bool
	Down      bool
	Missed    bool
	Reset     bool

	// Tick environment: the row-side state that gates what the policy's
	// output means. Watchdog is the deadman self-cap being engaged;
	// FailSafe is the telemetry guard's conservative cap; Stage is the
	// policy's engagement depth (0 = uncapped) as reported by StageReporter.
	Braked       bool
	BrakePending bool
	Watchdog     bool
	FailSafe     bool
	Stage        int8

	// Tick action: the pool locks desired after the policy ran (0 = uncap).
	LPDesiredMHz float64
	HPDesiredMHz float64

	// Tick load snapshot: busy servers and GPU power per pool, for regret
	// estimation without re-simulation.
	LPBusy  int32
	HPBusy  int32
	LPWatts float64
	HPWatts float64

	// Route inputs: the request being placed and the candidate snapshot
	// (EpOff/EpLen index the recorder's candidate arena).
	ReqID   int64
	Class   string
	Pri     int8
	Retry   int32
	Session int64
	Prefix  int32
	EpOff   int32
	EpLen   int32
	// Chosen is the picked candidate's index into the snapshot (-1 = no
	// server available).
	Chosen int32
}

// RouteCandidate is one endpoint as the router saw it: the replica's node
// index, queued+running load, KV occupancy, and applied cap.
type RouteCandidate struct {
	Server    int32
	Load      int32
	KVFrac    float64
	CappedMHz float64
}

// Candidates returns the decision's route snapshot from the arena slice
// returned alongside it (nil for tick decisions).
func (d Decision) Candidates(arena []RouteCandidate) []RouteCandidate {
	if d.Kind != DecRoute || d.EpLen == 0 {
		return nil
	}
	return arena[d.EpOff : d.EpOff+d.EpLen]
}

// RungSpec is one threshold of a capping ladder, as polca runs it
// (polca.Rung is an alias) and as the decision-log header records it: when
// row utilization reaches Trigger, the rung locks the low-priority pool to
// LowMHz and the high-priority pool to HighMHz (0 leaves that pool alone);
// it releases when utilization falls below Trigger - Margin.
type RungSpec struct {
	// Name prefixes the rung's trace reasons ("t2.lp" traces
	// "t2.lp.engage" and "t2.lp.release"); an unnamed rung traces bare
	// "engage" and "release".
	Name string `json:"name,omitempty"`
	// Trigger is the utilization (fraction of provisioned power) at which
	// the rung engages.
	Trigger float64 `json:"trigger"`
	// Margin is the hysteresis band below Trigger for release.
	Margin float64 `json:"margin"`
	// LowMHz and HighMHz are the SM clocks the low- and high-priority
	// pools are locked to while the rung is engaged.
	LowMHz  float64 `json:"low_mhz,omitempty"`
	HighMHz float64 `json:"high_mhz,omitempty"`
	// Delay is how many hot ticks (utilization at or above Trigger) must
	// precede the one that engages, counted since utilization was last
	// below Trigger - Margin; a tick inside the hysteresis band neither
	// counts nor resets. POLCA's high-priority T2 rung uses 1: it fires
	// only if utilization is still at T2 on a later tick (Table 5).
	Delay int `json:"delay,omitempty"`
}

// PolicySpec is the deployed cap policy's full configuration, written to
// the log header so replay can reconstruct the controller (and variants of
// it) without access to the original command line.
type PolicySpec struct {
	// Kind selects the controller family: "polca", "1t" (single
	// threshold), "ladder", or "nocap".
	Kind string `json:"kind"`
	// polca fields.
	T1          float64 `json:"t1,omitempty"`
	T2          float64 `json:"t2,omitempty"`
	UncapMargin float64 `json:"uncap_margin,omitempty"`
	LPBaseMHz   float64 `json:"lp_base_mhz,omitempty"`
	LPDeepMHz   float64 `json:"lp_deep_mhz,omitempty"`
	HPCapMHz    float64 `json:"hp_cap_mhz,omitempty"`
	// 1t fields.
	Threshold float64 `json:"threshold,omitempty"`
	Margin    float64 `json:"margin,omitempty"`
	LockMHz   float64 `json:"lock_mhz,omitempty"`
	All       bool    `json:"all,omitempty"`
	// ladder fields.
	Name  string     `json:"name,omitempty"`
	Rungs []RungSpec `json:"rungs,omitempty"`
}

// GuardSpec mirrors polca.GuardConfig in the decision-log header.
type GuardSpec struct {
	Window        int     `json:"window"`
	StuckAfter    int     `json:"stuck_after"`
	StuckMinUtil  float64 `json:"stuck_min_util"`
	FailSafeAfter int     `json:"failsafe_after"`
	MaxStep       float64 `json:"max_step"`
	FailSafeLPMHz float64 `json:"failsafe_lp_mhz"`
	FailSafeHPMHz float64 `json:"failsafe_hp_mhz"`
}

// DecisionMeta is the log header: everything replay needs to rebuild the
// deployed policy, interpret the snapshots, and convert lock deltas into
// watts and seconds. It is the decision log's header line.
type DecisionMeta struct {
	Schema string `json:"schema"`
	// Policy is the deployed controller's display name ("polca", "guard(polca)").
	Policy string     `json:"policy"`
	Spec   PolicySpec `json:"spec"`
	// Guard is set when the deployed controller ran behind the telemetry
	// guard; replay wraps alternates identically.
	Guard *GuardSpec `json:"guard,omitempty"`
	// Watchdog configuration (0 epochs = disabled).
	WatchdogEpochs int     `json:"watchdog_epochs,omitempty"`
	WatchdogLPMHz  float64 `json:"watchdog_lp_mhz,omitempty"`
	WatchdogHPMHz  float64 `json:"watchdog_hp_mhz,omitempty"`
	// Row shape and power model constants.
	TelemetrySec     float64 `json:"telemetry_s"`
	Servers          int     `json:"servers"`
	LPServers        int     `json:"lp_servers"`
	HPServers        int     `json:"hp_servers"`
	ProvisionedW     float64 `json:"provisioned_w"`
	BrakeUtil        float64 `json:"brake_util"`
	BrakeReleaseUtil float64 `json:"brake_release_util"`
	IdleServerW      float64 `json:"idle_server_w"`
	BusyServerW      float64 `json:"busy_server_w"`
	UncappedMHz      float64 `json:"uncapped_mhz,omitempty"`
	// Model and DType name the served model, so replay can profile lock
	// slowdown/power factors on the same inference cost model the run used.
	Model string `json:"model,omitempty"`
	DType string `json:"dtype,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Serve-mode routing: Router is the deployed router's name.
	Serve  bool   `json:"serve,omitempty"`
	Router string `json:"router,omitempty"`
}

// DecisionRecorder records decisions with their input snapshots. It is safe
// for concurrent use; a nil *DecisionRecorder is a valid disabled recorder
// — RecordTick/RecordRoute on nil return after a single branch, which is
// the non-perturbation guarantee the row relies on (see
// BenchmarkDecisionRecord for the enabled path's zero-alloc contract).
type DecisionRecorder struct {
	mu    sync.Mutex
	meta  DecisionMeta
	recs  []Decision
	cands []RouteCandidate
}

// NewDecisionRecorder returns an enabled recorder.
func NewDecisionRecorder() *DecisionRecorder {
	return &DecisionRecorder{}
}

// UpdateMeta edits the stored header in place under the recorder's lock;
// the row fills the shape fields at construction and the CLI fills the
// policy spec.
func (r *DecisionRecorder) UpdateMeta(fn func(*DecisionMeta)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fn(&r.meta)
	r.mu.Unlock()
}

// Meta returns the stored header.
func (r *DecisionRecorder) Meta() DecisionMeta {
	if r == nil {
		return DecisionMeta{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meta
}

// RecordTick records one controller-tick decision.
func (r *DecisionRecorder) RecordTick(d Decision) {
	if r == nil {
		return
	}
	d.Kind = DecTick
	r.mu.Lock()
	r.recs = append(r.recs, d)
	r.mu.Unlock()
}

// RecordRoute records one router decision with its candidate snapshot. The
// candidates are copied into the recorder's arena, so callers may reuse
// their scratch slice across calls.
func (r *DecisionRecorder) RecordRoute(d Decision, cands []RouteCandidate) {
	if r == nil {
		return
	}
	d.Kind = DecRoute
	r.mu.Lock()
	d.EpOff = int32(len(r.cands))
	d.EpLen = int32(len(cands))
	r.cands = append(r.cands, cands...)
	r.recs = append(r.recs, d)
	r.mu.Unlock()
}

// Len returns the number of recorded decisions.
func (r *DecisionRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Decisions returns a copy of the recorded decisions in order, plus the
// candidate arena route decisions index into via Decision.Candidates.
func (r *DecisionRecorder) Decisions() ([]Decision, []RouteCandidate) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	recs := make([]Decision, len(r.recs))
	copy(recs, r.recs)
	cands := make([]RouteCandidate, len(r.cands))
	copy(cands, r.cands)
	return recs, cands
}

// Reset discards recorded decisions but keeps buffer capacity and the
// stored header.
func (r *DecisionRecorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs = r.recs[:0]
	r.cands = r.cands[:0]
	r.mu.Unlock()
}

// appendDecisionJSON appends a decision's record members with fixed
// member order and omitted zero members, mirroring appendEventJSON.
func appendDecisionJSON(b []byte, d Decision, arena []RouteCandidate) []byte {
	b = append(b, `,"t_us":`...)
	b = strconv.AppendInt(b, int64(d.At/time.Microsecond), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, d.Kind.String())
	switch d.Kind {
	case DecTick:
		b = append(b, `,"true_util":`...)
		b = strconv.AppendFloat(b, d.TrueUtil, 'g', -1, 64)
		if d.Delivered {
			b = append(b, `,"util":`...)
			b = strconv.AppendFloat(b, d.Reading, 'g', -1, 64)
		}
		if d.Lost {
			b = append(b, `,"lost":true`...)
		}
		if d.Down {
			b = append(b, `,"down":true`...)
		}
		if d.Missed {
			b = append(b, `,"missed":true`...)
		}
		if d.Reset {
			b = append(b, `,"reset":true`...)
		}
		if d.Braked {
			b = append(b, `,"braked":true`...)
		}
		if d.BrakePending {
			b = append(b, `,"brake_pending":true`...)
		}
		if d.Watchdog {
			b = append(b, `,"wd":true`...)
		}
		if d.FailSafe {
			b = append(b, `,"failsafe":true`...)
		}
		if d.Stage != 0 {
			b = append(b, `,"stage":`...)
			b = strconv.AppendInt(b, int64(d.Stage), 10)
		}
		b = append(b, `,"lp_mhz":`...)
		b = strconv.AppendFloat(b, d.LPDesiredMHz, 'g', -1, 64)
		b = append(b, `,"hp_mhz":`...)
		b = strconv.AppendFloat(b, d.HPDesiredMHz, 'g', -1, 64)
		if d.LPBusy != 0 {
			b = append(b, `,"lp_busy":`...)
			b = strconv.AppendInt(b, int64(d.LPBusy), 10)
		}
		if d.HPBusy != 0 {
			b = append(b, `,"hp_busy":`...)
			b = strconv.AppendInt(b, int64(d.HPBusy), 10)
		}
		if d.LPWatts != 0 {
			b = append(b, `,"lp_w":`...)
			b = strconv.AppendFloat(b, d.LPWatts, 'g', -1, 64)
		}
		if d.HPWatts != 0 {
			b = append(b, `,"hp_w":`...)
			b = strconv.AppendFloat(b, d.HPWatts, 'g', -1, 64)
		}
	case DecRoute:
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, d.ReqID, 10)
		if d.Class != "" {
			b = append(b, `,"class":`...)
			b = appendJSONString(b, d.Class)
		}
		b = append(b, `,"pri":`...)
		b = strconv.AppendInt(b, int64(d.Pri), 10)
		if d.Retry != 0 {
			b = append(b, `,"retry":`...)
			b = strconv.AppendInt(b, int64(d.Retry), 10)
		}
		if d.Session != 0 {
			b = append(b, `,"session":`...)
			b = strconv.AppendInt(b, d.Session, 10)
		}
		if d.Prefix != 0 {
			b = append(b, `,"prefix":`...)
			b = strconv.AppendInt(b, int64(d.Prefix), 10)
		}
		b = append(b, `,"chosen":`...)
		b = strconv.AppendInt(b, int64(d.Chosen), 10)
		b = append(b, `,"eps":[`...)
		for i, c := range d.Candidates(arena) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(c.Server), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(c.Load), 10)
			b = append(b, ',')
			b = strconv.AppendFloat(b, c.KVFrac, 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, c.CappedMHz, 'g', -1, 64)
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	return b
}

// WriteJSONL writes the decision log (see writeLog): the header carries
// the stored DecisionMeta, then one record per decision in record order.
func (r *DecisionRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	meta := r.Meta()
	meta.Schema = DecisionSchema
	recs, cands := r.Decisions()
	return writeLog(w, meta, recs, func(b []byte, d Decision) []byte {
		return appendDecisionJSON(b, d, cands)
	})
}

// decisionFields are the member names of a decision record line.
var decisionFields = []string{
	"seq", "t_us", "kind", "true_util", "util", "lost", "down", "missed", "reset", "braked",
	"brake_pending", "wd", "failsafe", "stage", "lp_mhz", "hp_mhz", "lp_busy", "hp_busy", "lp_w", "hp_w",
	"req", "class", "pri", "retry", "session", "prefix", "chosen", "eps",
}

// parseDecisionLine decodes one record line into a Decision and its seq;
// route candidates are appended to cands and indexed by the returned
// decision. Every member is read whatever the kind, so a malformed one
// fails either kind, but a decision keeps only its own kind's fields.
func parseDecisionLine(raw []byte, cands []RouteCandidate) (_ Decision, _ []RouteCandidate, seq uint64, err error) {
	dc := Decision{Chosen: -1}
	base := len(cands)
	var epsErr error
	d := recordDecoder{data: raw}
	for d.member(decisionFields) {
		switch d.key {
		case "seq":
			d.uint64(&seq)
		case "t_us":
			d.micros(&dc.At)
		case "kind":
			if s, ok := d.text(); ok {
				if dc.Kind, ok = ParseDecisionKind(string(s)); !ok {
					return Decision{}, cands[:base], 0, fmt.Errorf("unknown kind %q", s)
				}
			}
		case "true_util":
			d.float64(&dc.TrueUtil)
		case "util":
			// Present iff a reading was delivered: 0.0 is a legitimate reading.
			dc.Delivered = d.float64(&dc.Reading)
		case "lost":
			d.bool(&dc.Lost)
		case "down":
			d.bool(&dc.Down)
		case "missed":
			d.bool(&dc.Missed)
		case "reset":
			d.bool(&dc.Reset)
		case "braked":
			d.bool(&dc.Braked)
		case "brake_pending":
			d.bool(&dc.BrakePending)
		case "wd":
			d.bool(&dc.Watchdog)
		case "failsafe":
			d.bool(&dc.FailSafe)
		case "stage":
			d.int8(&dc.Stage)
		case "lp_mhz":
			d.float64(&dc.LPDesiredMHz)
		case "hp_mhz":
			d.float64(&dc.HPDesiredMHz)
		case "lp_busy":
			d.int32(&dc.LPBusy)
		case "hp_busy":
			d.int32(&dc.HPBusy)
		case "lp_w":
			d.float64(&dc.LPWatts)
		case "hp_w":
			d.float64(&dc.HPWatts)
		case "req":
			d.int64(&dc.ReqID)
		case "class":
			d.string(&dc.Class)
		case "pri":
			d.int8(&dc.Pri)
		case "retry":
			d.int32(&dc.Retry)
		case "session":
			d.int64(&dc.Session)
		case "prefix":
			d.int32(&dc.Prefix)
		case "chosen":
			d.int32(&dc.Chosen)
		case "eps":
			cands, epsErr = d.candidates(cands)
		}
	}
	if d.err != nil {
		return Decision{}, cands[:base], 0, d.err
	}
	switch dc.Kind {
	case DecTick:
		dc.ReqID, dc.Class, dc.Pri, dc.Retry, dc.Session, dc.Prefix, dc.Chosen = 0, "", 0, 0, 0, 0, 0
		cands = cands[:base]
	case DecRoute:
		if epsErr != nil {
			return Decision{}, cands[:base], 0, epsErr
		}
		dc = Decision{
			At: dc.At, Kind: DecRoute,
			ReqID: dc.ReqID, Class: dc.Class, Pri: dc.Pri, Retry: dc.Retry,
			Session: dc.Session, Prefix: dc.Prefix, Chosen: dc.Chosen,
			EpOff: int32(base), EpLen: int32(len(cands) - base),
		}
	default:
		return Decision{}, cands[:base], 0, fmt.Errorf("unknown kind %q", "")
	}
	return dc, cands, seq, nil
}

// candidates reads the "eps" member, [[server, load, kv_frac, capped_mhz],
// ...], appending one RouteCandidate per entry to cands. Each element is
// read as a float64, as json.Unmarshal reads a [][]float64, and server and
// load convert with int32(); a null element reads as 0 and a null entry as
// an empty one. The first entry that is not four elements long comes back
// as lenErr instead of failing the line, because only a route decision
// checks its candidates.
func (d *recordDecoder) candidates(cands []RouteCandidate) (_ []RouteCandidate, lenErr error) {
	if d.literal("null") {
		return cands, nil
	}
	if !d.consume('[') {
		d.syntaxError("an array")
		return cands, nil
	}
	d.space()
	if d.consume(']') {
		return cands, nil
	}
	for i := 0; d.err == nil; i++ {
		var ep [4]float64
		n := 0
		switch {
		case d.literal("null"):
		case d.consume('['):
			d.space()
			if d.consume(']') {
				break
			}
			for d.err == nil {
				f, _ := d.float()
				if n < len(ep) {
					ep[n] = f
				}
				n++
				d.space()
				if !d.consume(',') {
					if !d.consume(']') {
						d.syntaxError("',' or ']'")
					}
					break
				}
				d.space()
			}
		default:
			d.syntaxError("an array or null")
		}
		if n == len(ep) {
			cands = append(cands, RouteCandidate{Server: int32(ep[0]), Load: int32(ep[1]), KVFrac: ep[2], CappedMHz: ep[3]})
		} else if lenErr == nil {
			lenErr = fmt.Errorf("eps[%d]: want 4 elements, got %d", i, n)
		}
		d.space()
		if !d.consume(',') {
			if !d.consume(']') {
				d.syntaxError("',' or ']'")
			}
			break
		}
		d.space()
	}
	return cands, lenErr
}

// ScanDecisions streams a decision log written by WriteJSONL: the header
// is decoded and returned, then fn runs once per decision in file order.
// The cands slice passed to fn is the decision's candidate snapshot (nil
// for ticks) and is only valid during the callback. `#` provenance lines go
// to comment (when non-nil). The envelope's checks apply (see scanLog), so
// a truncated or spliced log cannot be silently replayed.
func ScanDecisions(r io.Reader, comment func(line string), fn func(d Decision, cands []RouteCandidate) error) (meta DecisionMeta, err error) {
	var cands []RouteCandidate
	err = scanLog(r, decisionLog, &meta, comment, func(raw []byte) (d Decision, seq uint64, err error) {
		d, cands, seq, err = parseDecisionLine(raw, cands[:0])
		return d, seq, err
	}, func(d Decision) error { return fn(d, d.Candidates(cands)) })
	return meta, err
}
