package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New(1)
	var got []int
	e.At(3*time.Second, func(Time) { got = append(got, 3) })
	e.At(1*time.Second, func(Time) { got = append(got, 1) })
	e.At(2*time.Second, func(Time) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(Time) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

// TestAfterCancelableLastOrder pins the contract serving replicas rely on:
// an AfterCancelableLast event fires after every other event at its
// instant, one-shot or periodic, even those scheduled after it, and such
// events keep their scheduling order among themselves.
func TestAfterCancelableLastOrder(t *testing.T) {
	e := New(1)
	var got []string
	log := func(name string) Handler { return func(Time) { got = append(got, name) } }
	e.AfterCancelableLast(time.Second, log("last1"))
	e.At(time.Second, log("at1"))
	e.AfterCancelableLast(time.Second, log("last2"))
	e.At(500*time.Millisecond, func(Time) {
		e.After(500*time.Millisecond, log("at2"))
	})
	tick := e.Every(time.Second, log("tick"))
	e.RunUntil(time.Second)
	tick.Stop()
	want := []string{"at1", "tick", "at2", "last1", "last2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
}

// TestRepeatingOrder pins where a repeating timer fires among the events
// at its instant: after those scheduled before it started or its handler
// last returned, before those scheduled later and every
// AfterCancelableLast event, and after another timer with the same mark
// that started or re-armed before it. The tick schedules a one-shot at its
// own next instant, which therefore fires before that tick.
func TestRepeatingOrder(t *testing.T) {
	e := New(1)
	var got []string
	log := func(name string) Handler { return func(Time) { got = append(got, name) } }
	sub := e.EveryFrom(500*time.Millisecond, 500*time.Millisecond, log("sub"))
	tick := e.Every(time.Second, func(now Time) {
		got = append(got, "tick")
		e.At(now+time.Second, log("next"))
	})
	e.AfterCancelableLast(time.Second, log("last"))
	e.At(time.Second, log("before"))
	e.At(750*time.Millisecond, func(Time) { e.At(time.Second, log("after")) })
	e.RunUntil(2 * time.Second)
	sub.Stop()
	tick.Stop()
	want := []string{
		"sub",                                    // 0.5 s
		"tick", "before", "sub", "after", "last", // 1 s
		"sub",                 // 1.5 s
		"next", "tick", "sub", // 2 s: the timers share a mark
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
	if e.Dispatched() != 11 {
		t.Errorf("Dispatched = %d, want 11 (every firing counts)", e.Dispatched())
	}
}

func TestAfterRelative(t *testing.T) {
	e := New(1)
	var at Time
	e.After(5*time.Second, func(now Time) {
		at = now
		e.After(2*time.Second, func(now Time) { at = now })
	})
	e.Run()
	if at != 7*time.Second {
		t.Errorf("nested After fired at %v, want 7s", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.At(time.Second, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(0, func(Time) {})
}

func TestEvery(t *testing.T) {
	e := New(1)
	var ticks []Time
	tm := e.Every(time.Second, func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(3500 * time.Millisecond)
	tm.Stop()
	e.RunUntil(10 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, want := range []Time{time.Second, 2 * time.Second, 3 * time.Second} {
		if ticks[i] != want {
			t.Errorf("tick[%d] = %v, want %v", i, ticks[i], want)
		}
	}
}

func TestEveryFrom(t *testing.T) {
	e := New(1)
	var ticks []Time
	e.EveryFrom(0, 2*time.Second, func(now Time) { ticks = append(ticks, now) })
	e.RunUntil(5 * time.Second)
	want := []Time{0, 2 * time.Second, 4 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick[%d] = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTimerStopInsideHandler(t *testing.T) {
	e := New(1)
	n := 0
	var tm Timer
	tm = e.Every(time.Second, func(Time) {
		n++
		if n == 2 {
			tm.Stop()
		}
	})
	e.RunUntil(time.Minute)
	if n != 2 {
		t.Errorf("ticks after self-stop = %d, want 2", n)
	}
}

func TestAfterCancelable(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.AfterCancelable(time.Second, func(Time) { fired = true })
	tm.Stop()
	e.RunUntil(time.Minute)
	if fired {
		t.Error("canceled event fired")
	}
	// Zero Timer Stop is a no-op.
	Timer{}.Stop()
}

func TestRunUntilAdvancesClockThroughIdle(t *testing.T) {
	e := New(1)
	e.RunUntil(time.Hour)
	if e.Now() != time.Hour {
		t.Errorf("Now = %v, want 1h", e.Now())
	}
	// Deadline before now leaves the clock alone.
	e.RunUntil(time.Minute)
	if e.Now() != time.Hour {
		t.Errorf("Now regressed to %v", e.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := New(1)
	fired := false
	e.At(2*time.Second, func(Time) { fired = true })
	e.RunUntil(time.Second)
	if fired {
		t.Error("event after deadline fired early")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(3 * time.Second)
	if !fired {
		t.Error("event never fired")
	}
}

func TestRandDeterminismAndIndependence(t *testing.T) {
	a := New(42).Rand("arrivals")
	b := New(42).Rand("arrivals")
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+name streams diverge")
		}
	}
	c := New(42).Rand("noise")
	d := New(42).Rand("arrivals")
	same := true
	for i := 0; i < 10; i++ {
		if c.Int63() != d.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different names produced identical streams")
	}
	e := New(43).Rand("arrivals")
	f := New(42).Rand("arrivals")
	same = true
	for i := 0; i < 10; i++ {
		if e.Int63() != f.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// Property: for any batch of randomly-timed events, dispatch order is the
// stable sort by time (ties broken by insertion order).
func TestDispatchOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		e := New(seed)
		n := 2 + int(seed%53+53)%53
		type item struct {
			at  Time
			idx int
		}
		items := make([]item, n)
		var got []int
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(20)) * time.Second
			items[i] = item{at, i}
			i := i
			e.At(at, func(Time) { got = append(got, i) })
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].at < items[b].at })
		e.Run()
		for i := range items {
			if got[i] != items[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the clock never moves backwards during dispatch.
func TestClockMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		e := New(seed)
		ok := true
		last := Time(-1)
		for i := 0; i < 40; i++ {
			at := Time(rng.Intn(1000)) * time.Millisecond
			e.At(at, func(now Time) {
				if now < last {
					ok = false
				}
				last = now
				// Handlers may schedule relative follow-ups.
				if rng.Intn(3) == 0 {
					e.After(time.Duration(rng.Intn(100))*time.Millisecond, func(now2 Time) {
						if now2 < last {
							ok = false
						}
						last = now2
					})
				}
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New(1)
	var recovered any
	e.At(time.Second, func(Time) {
		defer func() { recovered = recover() }()
		e.RunUntil(2 * time.Second)
	})
	e.RunUntil(time.Minute)
	if recovered == nil {
		t.Error("reentrant RunUntil should panic")
	}
}
