// Package sim implements the deterministic discrete-event simulation engine
// underlying the POLCA reproduction. The engine keeps a virtual clock and a
// priority queue of pending events; all model code — GPUs, servers, power
// managers, request schedulers — runs as event handlers against this clock.
//
// Determinism is a design goal (the paper's evaluation requires replaying
// identical six-week traces across policies): events scheduled for the same
// instant fire in scheduling order, and all randomness is derived from named
// streams seeded from the engine's root seed. No wall-clock time is read
// anywhere in the simulation.
//
// Every one-shot event has a place in one total order, (time, seq): seq is
// a counter the engine takes one number from for each one-shot event it
// schedules, so same-instant events fire in scheduling order.
// AfterCancelableLast sets the seq's top bit, so its events fire after
// every other event at their instant and in scheduling order among
// themselves. One-shot events live in a value-based 4-ary min-heap: events
// are plain structs stored in a reusable slice, so the steady-state
// schedule/dispatch path performs no allocation. Cancelable timers use generation-stamped slots instead of
// per-timer flag allocations; Timer.Stop is O(1), canceled events are
// counted as tombstones, and the queue compacts itself when tombstones
// outnumber live events, so a six-week simulation that starts and cancels
// millions of phase timers stays lean.
//
// Repeating timers (Every, EveryFrom) never enter the heap and take no
// seq. A row runs two, its 0.25 s power sub-sample and its 2 s control
// tick, which fire most of its events; each is one entry in a short list
// beside the heap, re-armed in place. An entry stores its mark, the seq
// counter when the timer started or its handler last returned: its firing
// at instant t follows the events at t with a seq up to the mark and
// precedes the later ones, the place a heap event scheduled at that moment
// would take. Entries with one mark fire in the order they started or
// re-armed (ord). Before each dispatch the engine takes whichever of the
// earliest entry by (time, mark, ord) and the heap top goes first.
package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"polca/internal/obs"
)

// Time is an instant on the simulation clock, measured as a duration from
// the start of the simulation. Using time.Duration (integer nanoseconds)
// keeps six-week simulations free of floating-point drift.
type Time = time.Duration

// Handler is an event callback. It runs at its scheduled virtual time and
// may schedule further events.
type Handler func(now Time)

// event is an entry in the engine's queue. Events are stored by value in
// the heap slice; noTimer marks events that cannot be canceled.
type event struct {
	at    Time
	seq   uint64 // tie-break: FIFO among events at the same instant
	fn    Handler
	timer int32 // slot index in Engine.timers, or noTimer
}

const noTimer int32 = -1

// repeating is a live Every or EveryFrom timer: its next firing at, its
// period and handler, and its slot. mark is the engine's seq counter when
// the timer started or its handler last returned: the events at its
// instant with a seq up to mark fire before it, the later ones after it.
// ord breaks ties between timers with one mark, in the order they started
// or re-armed.
type repeating struct {
	at     Time
	mark   uint64
	ord    uint64
	period time.Duration
	fn     Handler
	timer  int32
}

// before reports whether the timer fires before the queued event ev.
func (r *repeating) before(ev *event) bool {
	return r.at < ev.at || r.at == ev.at && r.mark < ev.seq
}

// less orders two repeating timers by (at, mark, ord).
func (r *repeating) less(o *repeating) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.mark != o.mark {
		return r.mark < o.mark
	}
	return r.ord < o.ord
}

// timerSlot is the engine-side state of one cancelable timer. Slots are
// recycled through a free list; gen distinguishes the current occupant from
// stale Timer handles to an earlier one, which makes Stop idempotent and
// safe after slot reuse.
type timerSlot struct {
	gen uint32
	// queued counts the events in the queue referencing this slot: one
	// while a one-shot timer is live, none for a repeating timer.
	queued  int32
	stopped bool
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now        Time
	seq        uint64
	queue      []event     // 4-ary min-heap ordered by (at, seq)
	repeating  []repeating // live repeating timers, unordered
	ord        uint64      // the last repeating.ord handed out
	firing     int32       // slot of the repeating timer whose handler runs, or noTimer
	timers     []timerSlot
	freeTimers []int32
	tombstones int // queued events whose timer has been stopped
	seed       int64
	running    bool
	events     uint64 // events dispatched, counted unconditionally

	// Observability. The observer is injected by the run harness and handed
	// down to every layer built on this engine; dispatched is cached at
	// SetObserver time so the per-event cost with observability off is one
	// nil-receiver branch (see BenchmarkTracerDisabled).
	obs        *obs.Observer
	dispatched *obs.Counter
}

// New returns an Engine whose clock starts at zero and whose random streams
// derive from seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, firing: noTimer}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Dispatched returns the number of events the engine has dispatched since
// construction. Unlike the observer counter it is always on, so benchmark
// harnesses can report events/sec without attaching an observer.
func (e *Engine) Dispatched() uint64 { return e.events }

// SetObserver attaches an observability sink to the engine. Layers built on
// the engine (cluster rows, policies) read it back with Observer. A nil
// observer (the default) disables all instrumentation. Observation never
// perturbs simulation state: nothing reached through the observer touches
// the engine's clock, queue, or random streams.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.obs = o
	e.dispatched = o.Counter("sim_events_dispatched_total")
}

// Observer returns the observer attached with SetObserver, or nil.
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Rand returns a deterministic random stream derived from the engine seed
// and the given name. Distinct names yield independent streams; calling
// Rand twice with the same name returns streams with identical sequences,
// so callers should create each stream once and retain it.
func (e *Engine) Rand(name string) *rand.Rand {
	// FNV-1a over the decimal seed, '/', and the name — the exact bytes the
	// original fmt.Fprintf(h, "%d/%s", seed, name) implementation hashed,
	// so every (seed, name) pair keeps its historical stream.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [20]byte
	h := uint64(offset64)
	for _, c := range strconv.AppendInt(buf[:0], e.seed, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return rand.New(rand.NewSource(int64(h)))
}

// --- queue (value-based 4-ary min-heap) ---

const arity = 4

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// lastSeq is the seq bit AfterCancelableLast sets.
const lastSeq = 1 << 63

// schedule pushes an event; timer is a slot index or noTimer.
func (e *Engine) schedule(at Time, fn Handler, timer int32, last bool) {
	e.seq++
	ev := event{at: at, seq: e.seq, fn: fn, timer: timer}
	if last {
		ev.seq |= lastSeq
	}
	if timer != noTimer {
		e.timers[timer].queued++
	}
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) siftUp(i int) {
	ev := e.queue[i]
	for i > 0 {
		p := (i - 1) / arity
		if !eventLess(&ev, &e.queue[p]) {
			break
		}
		e.queue[i] = e.queue[p]
		i = p
	}
	e.queue[i] = ev
}

func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	ev := e.queue[i]
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		min := first
		last := first + arity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&e.queue[c], &e.queue[min]) {
				min = c
			}
		}
		if !eventLess(&e.queue[min], &ev) {
			break
		}
		e.queue[i] = e.queue[min]
		i = min
	}
	e.queue[i] = ev
}

func (e *Engine) popMin() event {
	min := e.queue[0]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = event{} // release the handler for GC
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue[0] = last
		e.siftDown(0)
	}
	return min
}

// settle performs the timer bookkeeping for a popped event and reports
// whether the event is live and should be dispatched.
func (e *Engine) settle(ev *event) bool {
	if ev.timer == noTimer {
		return true
	}
	s := &e.timers[ev.timer]
	s.queued--
	if s.stopped {
		e.tombstones--
		if s.queued == 0 {
			e.freeTimerSlot(ev.timer)
		}
		return false
	}
	// The one-shot fired: retire the slot so a later Stop is a no-op.
	s.stopped = true
	e.freeTimerSlot(ev.timer)
	return true
}

// canceled reports whether a queued event's timer has been stopped.
func (e *Engine) canceled(ev *event) bool {
	return ev.timer != noTimer && e.timers[ev.timer].stopped
}

// maybeCompact rebuilds the heap without its canceled events once they
// outnumber the live ones. The floor avoids rescanning tiny queues where
// tombstones drain naturally through dispatch.
func (e *Engine) maybeCompact() {
	const minTombstones = 16
	if e.tombstones < minTombstones || e.tombstones*2 <= len(e.queue) {
		return
	}
	w := 0
	for _, ev := range e.queue {
		if ev.timer != noTimer {
			if s := &e.timers[ev.timer]; s.stopped {
				s.queued--
				if s.queued == 0 {
					e.freeTimerSlot(ev.timer)
				}
				continue
			}
		}
		e.queue[w] = ev
		w++
	}
	for i := w; i < len(e.queue); i++ {
		e.queue[i] = event{}
	}
	e.queue = e.queue[:w]
	e.tombstones = 0
	if w > 1 { // (w-2)/arity truncates to 0 for w < 2, which would sift an empty heap
		for i := (w - 2) / arity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// --- timer slots ---

func (e *Engine) newTimerSlot() (int32, uint32) {
	var id int32
	if n := len(e.freeTimers); n > 0 {
		id = e.freeTimers[n-1]
		e.freeTimers = e.freeTimers[:n-1]
	} else {
		e.timers = append(e.timers, timerSlot{})
		id = int32(len(e.timers) - 1)
	}
	s := &e.timers[id]
	s.queued = 0
	s.stopped = false
	return id, s.gen
}

// freeTimerSlot recycles a slot; bumping gen invalidates outstanding Timer
// handles that still reference it, and tells fireRepeating that a timer
// stopped inside its own handler must not re-arm.
func (e *Engine) freeTimerSlot(id int32) {
	e.timers[id].gen++
	e.freeTimers = append(e.freeTimers, id)
}

// --- scheduling API ---

// At schedules fn to run at the absolute virtual time at. Scheduling in the
// past (before Now) panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.schedule(at, fn, noTimer, false)
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d time.Duration, fn Handler) {
	e.At(e.now+d, fn)
}

// Timer is a handle to a cancelable scheduled or repeating event.
type Timer struct {
	e   *Engine
	id  int32
	gen uint32
}

// Stop cancels the timer in O(1). Events already dispatched are unaffected.
// Stop is idempotent and safe on the zero Timer.
func (t Timer) Stop() {
	if t.e == nil {
		return
	}
	s := &t.e.timers[t.id]
	if s.gen != t.gen || s.stopped {
		return
	}
	s.stopped = true
	if s.queued == 0 { // a repeating timer
		t.e.dropRepeating(t.id)
		t.e.freeTimerSlot(t.id)
		return
	}
	t.e.tombstones += int(s.queued)
	t.e.maybeCompact()
}

// AfterCancelable schedules fn after d and returns a Timer that can cancel
// it before it fires.
func (e *Engine) AfterCancelable(d time.Duration, fn Handler) Timer {
	return e.afterCancelable(d, fn, false)
}

// AfterCancelableLast is AfterCancelable for an event that fires after
// every event at its instant that was not scheduled this way, whenever
// that one was scheduled. A serving replica schedules its iteration
// completions so: everything else at a completion instant sees the
// iteration still in flight, whether it was scheduled before the
// iteration formed or during it.
func (e *Engine) AfterCancelableLast(d time.Duration, fn Handler) Timer {
	return e.afterCancelable(d, fn, true)
}

func (e *Engine) afterCancelable(d time.Duration, fn Handler, last bool) Timer {
	id, gen := e.newTimerSlot()
	e.schedule(e.now+d, fn, id, last)
	return Timer{e: e, id: id, gen: gen}
}

// Every schedules fn to run at now+period, then every period thereafter,
// until the returned Timer is stopped. period must be positive.
func (e *Engine) Every(period time.Duration, fn Handler) Timer {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	return e.startRepeating(e.now+period, period, fn)
}

// EveryFrom is like Every but fires the first tick at start (an absolute
// time >= Now) instead of now+period.
func (e *Engine) EveryFrom(start Time, period time.Duration, fn Handler) Timer {
	if period <= 0 {
		panic("sim: EveryFrom with non-positive period")
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: EveryFrom start %v before now %v", start, e.now))
	}
	return e.startRepeating(start, period, fn)
}

func (e *Engine) startRepeating(first Time, period time.Duration, fn Handler) Timer {
	id, gen := e.newTimerSlot()
	e.ord++
	e.repeating = append(e.repeating, repeating{at: first, mark: e.seq, ord: e.ord, period: period, fn: fn, timer: id})
	return Timer{e: e, id: id, gen: gen}
}

// dropRepeating removes the entry of slot id. An entry stays in the list
// while its own handler runs, so a timer that stops itself also ends the
// handler's exclusion from Pending.
func (e *Engine) dropRepeating(id int32) {
	if e.firing == id {
		e.firing = noTimer
	}
	i := e.findRepeating(id)
	last := len(e.repeating) - 1
	e.repeating[i] = e.repeating[last]
	e.repeating[last] = repeating{} // release the handler for GC
	e.repeating = e.repeating[:last]
}

// findRepeating returns the index of slot id's entry, which must be live.
func (e *Engine) findRepeating(id int32) int {
	i := 0
	for e.repeating[i].timer != id {
		i++
	}
	return i
}

// --- dispatch ---

// nextRepeating returns the index of the repeating timer that fires before
// the heap top, or -1 when the heap top (live or canceled) goes first or
// no timer is pending.
func (e *Engine) nextRepeating() int {
	if len(e.repeating) == 0 {
		return -1
	}
	ri := 0
	for i := 1; i < len(e.repeating); i++ {
		if e.repeating[i].less(&e.repeating[ri]) {
			ri = i
		}
	}
	if len(e.queue) > 0 && !e.repeating[ri].before(&e.queue[0]) {
		return -1
	}
	return ri
}

// fireRepeating dispatches repeating timer i and re-arms it in place, with
// the seq counter as its mark, unless its handler stopped it. The entry
// stays in the list while the handler runs. A handler that starts or stops
// timers moves entries, and one that stops its own timer can hand the slot
// to a timer it starts, so the re-arm checks the slot's generation and
// finds the entry by slot.
func (e *Engine) fireRepeating(i int) {
	r := &e.repeating[i]
	id, gen := r.timer, e.timers[r.timer].gen
	e.firing = id
	e.fire(r.at, r.fn)
	e.firing = noTimer
	if e.timers[id].gen != gen {
		return // it stopped itself
	}
	r = &e.repeating[e.findRepeating(id)]
	e.ord++
	r.at, r.mark, r.ord = r.at+r.period, e.seq, e.ord
}

func (e *Engine) fire(at Time, fn Handler) {
	e.now = at
	e.events++
	e.dispatched.Inc()
	fn(at)
}

// Step dispatches the next pending event and reports whether one existed.
func (e *Engine) Step() bool {
	for {
		if ri := e.nextRepeating(); ri >= 0 {
			e.fireRepeating(ri)
			return true
		}
		if len(e.queue) == 0 {
			return false
		}
		if ev := e.popMin(); e.settle(&ev) {
			e.fire(ev.at, ev.fn)
			return true
		}
	}
}

// RunUntil dispatches events in timestamp order until none is pending or
// the next event is strictly after deadline. The clock is left at the later
// of its current value and deadline, so back-to-back RunUntil calls advance
// time monotonically even across idle gaps.
func (e *Engine) RunUntil(deadline Time) {
	if e.running {
		panic("sim: reentrant RunUntil")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		if ri := e.nextRepeating(); ri >= 0 {
			if e.repeating[ri].at > deadline {
				break
			}
			e.fireRepeating(ri)
			continue
		}
		if len(e.queue) == 0 {
			break
		}
		// A canceled top is dropped whatever its time, so tombstones past
		// the deadline do not linger.
		if top := &e.queue[0]; top.at > deadline && !e.canceled(top) {
			break
		}
		if ev := e.popMin(); e.settle(&ev) {
			e.fire(ev.at, ev.fn)
		}
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// Run dispatches all pending events until none is left. Use with care:
// repeating and self-rescheduling timers never run out; prefer RunUntil
// for simulations that contain them.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of live (non-canceled) scheduled events. A
// repeating timer counts as one, except while its own handler runs.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.tombstones + len(e.repeating)
	if e.firing != noTimer {
		n--
	}
	return n
}
