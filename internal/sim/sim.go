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
// Every pending event has a place in one total order, (time, seq): seq is
// a counter the engine takes one number from for each event it schedules,
// so same-instant events fire in scheduling order. AfterCancelableLast sets
// the seq's top bit, so its events fire after every other event at their
// instant and in scheduling order among themselves. One-shot events live in
// a value-based 4-ary min-heap: events are plain structs stored in a
// reusable slice, so the steady-state schedule/dispatch path performs no
// allocation. Cancelable timers use generation-stamped slots instead of
// per-timer flag allocations; Timer.Stop is O(1), canceled events are
// counted as tombstones, and the queue compacts itself when tombstones
// outnumber live events, so a six-week simulation that starts and cancels
// millions of phase timers stays lean.
//
// Periodic timers (Every, EveryFrom) never enter the heap. A row has one,
// its control tick, and each lives as one entry in a small slice beside
// the heap; dispatch takes whichever of the heap top and the earliest entry
// is less by (time, seq). A periodic timer takes one seq when it starts and
// one per re-arm, after its handler returns: the numbers a re-scheduled
// heap event would take, so the order is the one a single heap would give.
//
// Samplers (SampleFrom) are periodic timers whose handlers only read
// state, such as a row's 0.25 s power sub-sample, which fires most of its
// events. They sit in a second slice and take no seq: a sampler stores the
// seq counter as it stood when it last ran (its mark), and a sample at
// instant t precedes exactly the events at t whose seq exceeds the mark,
// the ones a re-armed periodic timer would precede. Before each event
// other than a sample, the engine runs every sample that precedes it in
// one loop. A sample handler that schedules anything panics, so a sample
// moves no other event's place in the order.
package sim

import (
	"fmt"
	"math"
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

// periodic is a live Every or EveryFrom timer: its next firing at (at,
// seq), its period and its handler. timer and gen are its slot, which
// holds the handle's Stop state.
type periodic struct {
	at     Time
	seq    uint64
	period time.Duration
	fn     Handler
	timer  int32
	gen    uint32
}

// sampler is a live SampleFrom timer: its next sample at, its period and
// handler, and its slot. mark is the engine's seq counter when the sampler
// started or last ran: the events at its instant with a seq up to mark
// fire before the sample, the later ones after it. ord breaks ties between
// samplers with one mark, in the order they started or last ran.
type sampler struct {
	at     Time
	mark   uint64
	ord    uint64
	period time.Duration
	fn     Handler
	timer  int32
}

// before reports whether the sample precedes the event at (at, seq).
func (s *sampler) before(at Time, seq uint64) bool {
	return s.at < at || s.at == at && s.mark < seq
}

// less orders two samplers by (at, mark, ord).
func (s *sampler) less(o *sampler) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	if s.mark != o.mark {
		return s.mark < o.mark
	}
	return s.ord < o.ord
}

// timerKind is what a timer slot holds.
type timerKind uint8

const (
	oneShotTimer  timerKind = iota // an AfterCancelable event, in the heap
	periodicTimer                  // an Every/EveryFrom timer, in Engine.periodic
	sampleTimer                    // a SampleFrom timer, in Engine.samplers
)

// timerSlot is the engine-side state of one cancelable timer. Slots are
// recycled through a free list; gen distinguishes the current occupant from
// stale Timer handles to an earlier one, which makes Stop idempotent and
// safe after slot reuse.
type timerSlot struct {
	gen     uint32
	queued  int32 // events currently in the queue referencing this slot
	stopped bool
	kind    timerKind
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with New.
type Engine struct {
	now       Time
	seq       uint64
	queue     []event    // 4-ary min-heap ordered by (at, seq)
	periodic  []periodic // live periodic timers, unordered
	samplers  []sampler  // live samplers, unordered
	sampleOrd uint64     // the last sampler.ord handed out
	sampling  int32      // slot of the sampler whose handler runs, or noTimer
	// samplerDrops counts stopped samplers, so a sample that ran can tell
	// whether its entry may have moved.
	samplerDrops uint64
	timers       []timerSlot
	freeTimers   []int32
	tombstones   int // queued events whose timer has been stopped
	seed         int64
	running      bool
	events       uint64 // events dispatched, counted unconditionally

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
	return &Engine{seed: seed, sampling: noTimer}
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

func (e *Engine) newTimerSlot(kind timerKind) (int32, uint32) {
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
	s.kind = kind
	return id, s.gen
}

// freeTimerSlot recycles a slot; bumping gen invalidates outstanding Timer
// handles, and the periodic entry of a timer stopped inside its own
// handler, that still reference it.
func (e *Engine) freeTimerSlot(id int32) {
	e.timers[id].gen++
	e.freeTimers = append(e.freeTimers, id)
}

func (e *Engine) timerActive(id int32, gen uint32) bool {
	s := &e.timers[id]
	return s.gen == gen && !s.stopped
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
	switch s.kind {
	case periodicTimer:
		t.e.dropPeriodic(t.id)
	case sampleTimer:
		t.e.dropSampler(t.id)
	}
	if s.queued == 0 {
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
	id, gen := e.newTimerSlot(oneShotTimer)
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
	id, gen := e.newTimerSlot(periodicTimer)
	e.seq++
	e.periodic = append(e.periodic, periodic{at: first, seq: e.seq, period: period, fn: fn, timer: id, gen: gen})
	return Timer{e: e, id: id, gen: gen}
}

// SampleFrom is EveryFrom for a handler that only reads state, such as a
// power sampler: fn runs at start and every period thereafter, until the
// returned Timer is stopped, in the same place among the other events as
// an EveryFrom timer's handler would. A sample takes no seq, and the
// engine runs the samples due before an event in one loop instead of
// dispatching each through the queue. A sample handler must not schedule
// or start anything: the engine panics if it does.
func (e *Engine) SampleFrom(start Time, period time.Duration, fn Handler) Timer {
	if period <= 0 {
		panic("sim: SampleFrom with non-positive period")
	}
	if start < e.now {
		panic(fmt.Sprintf("sim: SampleFrom start %v before now %v", start, e.now))
	}
	if e.sampling != noTimer {
		panic("sim: SampleFrom inside a sample handler")
	}
	id, gen := e.newTimerSlot(sampleTimer)
	e.sampleOrd++
	e.samplers = append(e.samplers, sampler{at: start, mark: e.seq, ord: e.sampleOrd, period: period, fn: fn, timer: id})
	return Timer{e: e, id: id, gen: gen}
}

// dropPeriodic removes the periodic entry of slot id, if it is in the
// list: it is not while its own handler runs.
func (e *Engine) dropPeriodic(id int32) {
	for i := range e.periodic {
		if e.periodic[i].timer == id {
			e.removePeriodic(i)
			return
		}
	}
}

func (e *Engine) removePeriodic(i int) {
	last := len(e.periodic) - 1
	e.periodic[i] = e.periodic[last]
	e.periodic[last] = periodic{} // release the handler for GC
	e.periodic = e.periodic[:last]
}

// dropSampler removes the sampler of slot id. A sampler stays in the list
// while its own handler runs, so a sampler that stops itself ends the
// handler's exclusion from Pending too.
func (e *Engine) dropSampler(id int32) {
	if e.sampling == id {
		e.sampling = noTimer
	}
	i := e.findSampler(id)
	last := len(e.samplers) - 1
	e.samplers[i] = e.samplers[last]
	e.samplers[last] = sampler{} // release the handler for GC
	e.samplers = e.samplers[:last]
	e.samplerDrops++
}

// findSampler returns the index of slot id's sampler, or -1.
func (e *Engine) findSampler(id int32) int {
	for i := range e.samplers {
		if e.samplers[i].timer == id {
			return i
		}
	}
	return -1
}

// --- dispatch ---

// nextPeriodic returns the index of the periodic timer that fires before
// the heap top, or -1 when the heap top (live or canceled) goes first.
func (e *Engine) nextPeriodic() int {
	if len(e.periodic) == 0 {
		return -1
	}
	pi := 0
	for i := 1; i < len(e.periodic); i++ {
		if e.periodic[i].before(e.periodic[pi].at, e.periodic[pi].seq) {
			pi = i
		}
	}
	if len(e.queue) > 0 && !e.periodic[pi].before(e.queue[0].at, e.queue[0].seq) {
		return -1
	}
	return pi
}

// before reports whether the timer's next firing precedes (at, seq).
func (p *periodic) before(at Time, seq uint64) bool {
	return p.at < at || p.at == at && p.seq < seq
}

// peek returns the (at, seq) of the next event other than a sample, given
// nextPeriodic's pi: the periodic timer's, the heap top's (live or
// canceled), or the largest key when nothing is pending.
func (e *Engine) peek(pi int) (Time, uint64) {
	switch {
	case pi >= 0:
		return e.periodic[pi].at, e.periodic[pi].seq
	case len(e.queue) > 0:
		return e.queue[0].at, e.queue[0].seq
	}
	return math.MaxInt64, math.MaxUint64
}

// nextSample returns the index of the earliest sampler, or -1.
func (e *Engine) nextSample() int {
	if len(e.samplers) == 0 {
		return -1
	}
	si := 0
	for i := 1; i < len(e.samplers); i++ {
		if e.samplers[i].less(&e.samplers[si]) {
			si = i
		}
	}
	return si
}

// runSamples runs, in order, every sample that precedes the event at (at,
// seq) and is not after deadline, and reports whether it ran any. A sample
// handler only stops timers, which leaves the first event at or after
// (at, seq), so the bound holds through the loop.
func (e *Engine) runSamples(at Time, seq uint64, deadline Time) bool {
	ran := false
	for {
		var s *sampler
		switch len(e.samplers) {
		case 0:
			return ran
		case 1:
			s = &e.samplers[0]
		default:
			s = &e.samplers[e.nextSample()]
		}
		if s.at > deadline || !s.before(at, seq) {
			return ran
		}
		e.fireSample(s)
		ran = true
	}
}

// fireSample runs sampler s's handler and re-arms it with the seq counter
// as its mark, unless the handler stopped it. The entry stays in the list
// while the handler runs; no handler can grow the list, but one that stops
// a sampler moves or removes an entry.
func (e *Engine) fireSample(s *sampler) {
	id, seq, drops := s.timer, e.seq, e.samplerDrops
	e.sampling = id
	e.fire(s.at, s.fn)
	e.sampling = noTimer
	if e.seq != seq {
		panic(fmt.Sprintf("sim: a sample handler at %v scheduled an event", e.now))
	}
	if e.samplerDrops != drops {
		i := e.findSampler(id)
		if i < 0 {
			return // it stopped itself
		}
		s = &e.samplers[i]
	}
	e.sampleOrd++
	s.at, s.mark, s.ord = s.at+s.period, seq, e.sampleOrd
}

// firePeriodic dispatches periodic timer pi. The timer leaves the list
// while its handler runs, and returns with the next seq unless the handler
// stopped it.
func (e *Engine) firePeriodic(pi int) {
	p := e.periodic[pi]
	e.removePeriodic(pi)
	e.fire(p.at, p.fn)
	if e.timerActive(p.timer, p.gen) {
		e.seq++
		p.at, p.seq = p.at+p.period, e.seq
		e.periodic = append(e.periodic, p)
	}
}

func (e *Engine) fire(at Time, fn Handler) {
	e.now = at
	e.events++
	e.dispatched.Inc()
	fn(at)
}

// Step dispatches the next pending event, a sample included, and reports
// whether one existed.
func (e *Engine) Step() bool {
	for {
		pi := e.nextPeriodic()
		if si := e.nextSample(); si >= 0 && e.samplers[si].before(e.peek(pi)) {
			e.fireSample(&e.samplers[si])
			return true
		}
		if pi >= 0 {
			e.firePeriodic(pi)
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
		pi := e.nextPeriodic()
		if len(e.samplers) > 0 {
			if at, seq := e.peek(pi); e.runSamples(at, seq, deadline) {
				continue
			}
		}
		if pi >= 0 {
			if e.periodic[pi].at > deadline {
				break
			}
			e.firePeriodic(pi)
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
// periodic and self-rescheduling timers never run out; prefer RunUntil for
// simulations that contain periodic tasks.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of live (non-canceled) scheduled events. A
// periodic timer or sampler counts as one, except while its own handler
// runs.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.tombstones + len(e.periodic) + len(e.samplers)
	if e.sampling != noTimer {
		n--
	}
	return n
}
