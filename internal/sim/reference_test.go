package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refEngine is the reference scheduler the engine is checked against:
// every pending event in one slice, the least (at, last, seq) found by a
// linear scan, and one seq rule for every event — one number per scheduled
// one-shot, one when a repeating timer starts and one per re-arm, taken
// after its handler returns. The engine takes no number for a repeating
// timer and must order it the same way. The reference also counts the
// cases the property test must reach.
type refEngine struct {
	now        Time
	seq        uint64
	oneShots   uint64 // one-shots scheduled: the engine's seq counter
	pending    []*refEvent
	dispatched uint64
	firing     *refEvent // the event whose handler is running
	// reuse is set while the firing repeating timer has stopped itself and
	// no slot has been taken or freed since: the engine hands its slot to
	// the next timer started.
	reuse bool
	cov   map[string]int
}

type refEvent struct {
	r      *refEngine
	at     Time
	seq    uint64
	fn     Handler
	period time.Duration // 0 for a one-shot event
	last   bool          // fires after every unmarked event at its instant
	// mark is the engine's seq counter when a repeating timer started or
	// re-armed, for coverage only.
	mark uint64
	// nextOf is the repeating timer whose handler scheduled this one-shot
	// at that timer's next instant, for coverage only.
	nextOf  *refEvent
	fired   int  // times a repeating timer has fired
	stopped bool // stopped, or a one-shot that fired
}

func newRefEngine() *refEngine { return &refEngine{cov: map[string]int{}} }

// schedule queues fn at at. A repeating timer has a positive period; a
// one-shot event is last if it fires after the others at its instant, and
// cancelable if a Timer is returned for it.
func (r *refEngine) schedule(at Time, fn Handler, period time.Duration, last, cancelable bool) *refEvent {
	if at < r.now {
		panic(fmt.Sprintf("ref: schedule at %v before now %v", at, r.now))
	}
	if period > 0 || cancelable {
		if period > 0 && r.reuse {
			r.cov["repeating timer stopped itself, then its handler started one on its slot"]++
		}
		r.reuse = false
	}
	r.seq++
	ev := &refEvent{r: r, at: at, seq: r.seq, fn: fn, period: period, last: last}
	if period > 0 {
		if r.firing != nil {
			r.cov["repeating timer started in a handler"]++
		}
		ev.mark = r.oneShots
	} else {
		r.oneShots++
		if f := r.firing; f != nil && f.period > 0 && !last && at == f.at+f.period {
			ev.nextOf = f
		}
	}
	r.pending = append(r.pending, ev)
	return ev
}

// oneShotAt reports whether ev is an unmarked one-shot event at instant at.
func (ev *refEvent) oneShotAt(at Time) bool {
	return ev.at == at && ev.period == 0 && !ev.last
}

func (ev *refEvent) Stop() {
	r := ev.r
	if ev.stopped {
		return
	}
	ev.stopped = true
	r.reuse = ev.period > 0 && r.firing == ev
	if ev.period > 0 {
		switch r.firing {
		case ev:
			r.cov["repeating timer stopped in its own handler"]++
		case nil:
		default:
			r.cov["repeating timer stopped in another handler"]++
		}
	}
	for i, p := range r.pending {
		if p == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

// next returns the index of the least pending event by (at, last, seq),
// or -1.
func (r *refEngine) next() int {
	best := -1
	for i, ev := range r.pending {
		if best < 0 {
			best = i
			continue
		}
		b := r.pending[best]
		switch {
		case ev.at != b.at:
			if ev.at < b.at {
				best = i
			}
		case ev.last != b.last:
			if b.last {
				best = i
			}
		case ev.seq < b.seq:
			best = i
		}
	}
	return best
}

func (r *refEngine) dispatch(i int) {
	ev := r.pending[i]
	r.pending = append(r.pending[:i], r.pending[i+1:]...)
	for _, p := range r.pending {
		if p.at == ev.at && (p.period > 0) != (ev.period > 0) {
			r.cov["repeating timer and one-shot at one instant"]++
			break
		}
	}
	for _, p := range r.pending {
		if p.at == ev.at && p.last && !ev.last && p.seq < ev.seq {
			r.cov["last event passed by a later one at its instant"]++
			break
		}
	}
	// A repeating timer that has fired holds the seq of its last re-arm: a
	// one-shot at its instant fires before it if scheduled before that
	// re-arm, after it if scheduled later.
	for _, p := range r.pending {
		switch {
		case p.period > 0 && ev.period > 0 && p.at == ev.at && p.mark == ev.mark:
			r.cov["two repeating timers with one mark at one instant"]++
		case p.period > 0 && p.fired > 0 && ev.oneShotAt(p.at):
			r.cov["one-shot at a repeating timer's instant scheduled before its re-arm"]++
		case ev.period > 0 && ev.fired > 0 && p.oneShotAt(ev.at):
			r.cov["one-shot at a repeating timer's instant scheduled after its re-arm"]++
		}
	}
	if f := ev.nextOf; f != nil && !f.stopped && f.at == ev.at {
		r.cov["one-shot a repeating handler scheduled at its timer's next firing"]++
	}
	r.now = ev.at
	r.dispatched++
	r.firing = ev
	ev.fn(ev.at)
	r.firing, r.reuse = nil, false
	if ev.period == 0 {
		ev.stopped = true
		return
	}
	ev.fired++
	if !ev.stopped {
		r.seq++
		ev.at, ev.seq, ev.mark = ev.at+ev.period, r.seq, r.oneShots
		r.pending = append(r.pending, ev)
	}
}

func (r *refEngine) Now() Time          { return r.now }
func (r *refEngine) Dispatched() uint64 { return r.dispatched }
func (r *refEngine) Pending() int       { return len(r.pending) }
func (r *refEngine) At(at Time, fn Handler) {
	r.schedule(at, fn, 0, false, false)
}
func (r *refEngine) After(d time.Duration, fn Handler) { r.schedule(r.now+d, fn, 0, false, false) }
func (r *refEngine) AfterCancelable(d time.Duration, fn Handler) stopper {
	return r.schedule(r.now+d, fn, 0, false, true)
}
func (r *refEngine) AfterCancelableLast(d time.Duration, fn Handler) stopper {
	return r.schedule(r.now+d, fn, 0, true, true)
}
func (r *refEngine) Every(period time.Duration, fn Handler) stopper {
	return r.schedule(r.now+period, fn, period, false, false)
}
func (r *refEngine) EveryFrom(start Time, period time.Duration, fn Handler) stopper {
	return r.schedule(start, fn, period, false, false)
}

func (r *refEngine) Step() bool {
	i := r.next()
	if i >= 0 {
		r.dispatch(i)
	}
	return i >= 0
}

func (r *refEngine) RunUntil(deadline Time) {
	for {
		i := r.next()
		if i < 0 || r.pending[i].at > deadline {
			if i >= 0 && r.pending[i].at > deadline {
				r.cov["RunUntil deadline before a pending event"]++
			}
			break
		}
		r.dispatch(i)
	}
	if deadline > r.now {
		r.now = deadline
	}
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

type stopper interface{ Stop() }

// scheduler is the API the property test drives on both implementations.
type scheduler interface {
	Now() Time
	Dispatched() uint64
	Pending() int
	At(Time, Handler)
	After(time.Duration, Handler)
	AfterCancelable(time.Duration, Handler) stopper
	AfterCancelableLast(time.Duration, Handler) stopper
	Every(time.Duration, Handler) stopper
	EveryFrom(Time, time.Duration, Handler) stopper
	Step() bool
	RunUntil(Time)
	Run()
}

// engineSched adapts Engine's Timer-returning methods to scheduler.
type engineSched struct{ *Engine }

func (e engineSched) AfterCancelable(d time.Duration, fn Handler) stopper {
	return e.Engine.AfterCancelable(d, fn)
}
func (e engineSched) AfterCancelableLast(d time.Duration, fn Handler) stopper {
	return e.Engine.AfterCancelableLast(d, fn)
}
func (e engineSched) Every(period time.Duration, fn Handler) stopper {
	return e.Engine.Every(period, fn)
}
func (e engineSched) EveryFrom(start Time, period time.Duration, fn Handler) stopper {
	return e.Engine.EveryFrom(start, period, fn)
}

// firing is one dispatched handler as the workload logs it: which event,
// at what instant, and what Pending read inside the handler.
type firing struct {
	id      int
	at      Time
	pending int
}

// workload drives one scheduler with a seeded random mix of scheduling
// calls, from the top level and from inside handlers. Two workloads with
// the same seed make the same calls as long as their schedulers dispatch
// in the same order, so the first divergence shows in the logs.
type workload struct {
	s       scheduler
	rng     *rand.Rand
	log     []firing
	handles []stopper
	budget  int // schedulings left, so Run always drains
	ids     int
}

// grid is the scheduling granularity: coarse, so repeating timers and
// one-shot events often share an instant.
const grid = 250 * time.Millisecond

func (w *workload) handler(id int) Handler {
	return func(now Time) {
		w.log = append(w.log, firing{id, now, w.s.Pending()})
		if w.rng.Intn(3) == 0 {
			w.act()
		}
	}
}

// periodicHandler acts: it stops its own timer (handle index h) after its
// k-th firing and may then start a repeating timer, which takes over the
// stopped timer's engine slot.
func (w *workload) periodicHandler(id, h, k int) Handler {
	fired := 0
	return func(now Time) {
		w.log = append(w.log, firing{id, now, w.s.Pending()})
		if fired++; fired == k {
			w.handles[h].Stop()
			if w.budget > 0 && w.rng.Intn(2) == 0 {
				w.ids++
				start := now + time.Duration(w.rng.Intn(3))*grid
				w.every(w.ids, start, time.Duration(1+w.rng.Intn(4))*grid, false)
				w.budget--
			}
		}
		if w.rng.Intn(3) == 0 {
			w.act()
		}
	}
}

// sampleHandler only reads: it logs, and stops its own timer (handle index
// h) after its k-th firing.
func (w *workload) sampleHandler(id, h, k int) Handler {
	fired := 0
	return func(now Time) {
		w.log = append(w.log, firing{id, now, w.s.Pending()})
		if fired++; fired == k {
			w.handles[h].Stop()
		}
	}
}

// every starts a repeating timer with EveryFrom, whose handler only reads
// if reader is set and acts otherwise.
func (w *workload) every(id int, start Time, period time.Duration, reader bool) {
	h := len(w.handles)
	fn := w.periodicHandler(id, h, 1+w.rng.Intn(6))
	if reader {
		fn = w.sampleHandler(id, h, 1+w.rng.Intn(12))
	}
	w.handles = append(w.handles, nil)
	w.handles[h] = w.s.EveryFrom(start, period, fn)
}

// act makes one random scheduling call, or stops a random handle.
func (w *workload) act() {
	op := w.rng.Intn(8)
	if op < 7 && w.budget <= 0 {
		return
	}
	w.ids++
	id := w.ids
	d := time.Duration(w.rng.Intn(9)) * grid
	period := time.Duration(1+w.rng.Intn(4)) * grid
	switch op {
	case 0:
		w.s.At(w.s.Now()+d, w.handler(id))
	case 1:
		w.s.After(d, w.handler(id))
	case 2:
		w.handles = append(w.handles, w.s.AfterCancelable(d, w.handler(id)))
	case 3:
		h := len(w.handles)
		w.handles = append(w.handles, nil)
		w.handles[h] = w.s.Every(period, w.periodicHandler(id, h, 1+w.rng.Intn(6)))
	case 4:
		w.every(id, w.s.Now()+d, period, false)
	case 5:
		w.handles = append(w.handles, w.s.AfterCancelableLast(d, w.handler(id)))
	case 6:
		w.every(id, w.s.Now()+d, period, true)
	case 7:
		if len(w.handles) > 0 {
			w.handles[w.rng.Intn(len(w.handles))].Stop()
		}
		return
	}
	w.budget--
}

// matchReference runs one seeded random workload on the engine and on the
// reference scheduler and, after every top-level call, requires the same
// dispatch log (handler, instant, Pending inside the handler), Now,
// Dispatched and Pending. It returns the cases the workload reached.
func matchReference(t *testing.T, seed int64) map[string]int {
	ref := newRefEngine()
	got := &workload{s: engineSched{New(seed)}, rng: rand.New(rand.NewSource(seed)), budget: 120}
	want := &workload{s: ref, rng: rand.New(rand.NewSource(seed)), budget: 120}
	ops := rand.New(rand.NewSource(-seed))
	for call := 0; call < 80; call++ {
		var name string
		switch op := ops.Intn(10); {
		case op < 5:
			name = "act"
			got.act()
			want.act()
		case op < 7:
			name = "Step"
			got.s.Step()
			want.s.Step()
		case op < 9:
			deadline := got.s.Now() + time.Duration(ops.Intn(3000))*time.Millisecond
			name = fmt.Sprintf("RunUntil(%v)", deadline)
			got.s.RunUntil(deadline)
			want.s.RunUntil(deadline)
		default:
			name = "Run"
			got.s.Run()
			want.s.Run()
			ref.cov["Run"]++
		}
		if !reflect.DeepEqual(got.log, want.log) || got.s.Now() != want.s.Now() ||
			got.s.Dispatched() != want.s.Dispatched() || got.s.Pending() != want.s.Pending() {
			t.Fatalf("seed %d call %d (%s): engine diverged from reference\n"+
				"engine: now %v dispatched %d pending %d log %v\n"+
				"ref:    now %v dispatched %d pending %d log %v",
				seed, call, name,
				got.s.Now(), got.s.Dispatched(), got.s.Pending(), got.log,
				want.s.Now(), want.s.Dispatched(), want.s.Pending(), want.log)
		}
	}
	return ref.cov
}

// TestEngineMatchesReference runs matchReference over 300 seeds and
// requires the workloads to reach every listed case.
func TestEngineMatchesReference(t *testing.T) {
	cov := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		for k, v := range matchReference(t, seed) {
			cov[k] += v
		}
	}
	for _, c := range []string{
		"repeating timer stopped in its own handler",
		"repeating timer stopped in another handler",
		"repeating timer stopped itself, then its handler started one on its slot",
		"repeating timer started in a handler",
		"two repeating timers with one mark at one instant",
		"repeating timer and one-shot at one instant",
		"last event passed by a later one at its instant",
		"one-shot at a repeating timer's instant scheduled before its re-arm",
		"one-shot at a repeating timer's instant scheduled after its re-arm",
		"one-shot a repeating handler scheduled at its timer's next firing",
		"RunUntil deadline before a pending event",
		"Run",
	} {
		if cov[c] == 0 {
			t.Errorf("no workload reached case %q", c)
		}
	}
	t.Logf("cases reached: %v", cov)
}

// FuzzEngineMatchesReference runs matchReference on fuzzed seeds.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		matchReference(t, seed)
	})
}
