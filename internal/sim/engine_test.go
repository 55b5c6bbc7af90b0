package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500s" {
		t.Fatalf("String = %q", got)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*Millisecond, func(Time) { order = append(order, 3) })
	e.Schedule(10*Millisecond, func(Time) { order = append(order, 1) })
	e.Schedule(20*Millisecond, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOForSimultaneousEvents(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Second, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(Millisecond, func(Time) {})
}

func TestEngineRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1*Second, func(Time) { fired++ })
	e.Schedule(3*Second, func(Time) { fired++ })
	e.RunUntil(2 * Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick Event
	tick = func(now Time) {
		ticks = append(ticks, now)
		if now < 5*Second {
			e.After(Second, tick)
		}
	}
	e.After(Second, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, at := range ticks {
		if at != Time(i+1)*Second {
			t.Fatalf("tick %d at %v", i, at)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.AfterTimer(Second, func(Time) { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAmongMany(t *testing.T) {
	// Removing a timer from the middle of the heap must not disturb the
	// ordering of the remaining events.
	e := NewEngine()
	var got []int
	var timers []*Timer
	for i := 0; i < 20; i++ {
		i := i
		timers = append(timers, e.AfterTimer(Time(i+1)*Millisecond, func(Time) { got = append(got, i) }))
	}
	timers[5].Stop()
	timers[13].Stop()
	e.Run()
	want := 0
	for _, v := range got {
		for want == 5 || want == 13 {
			want++
		}
		if v != want {
			t.Fatalf("got %v", got)
		}
		want++
	}
	if len(got) != 18 {
		t.Fatalf("len(got) = %d", len(got))
	}
}

func TestTimerFiredIsNotPending(t *testing.T) {
	e := NewEngine()
	tm := e.AfterTimer(Millisecond, func(Time) {})
	e.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop on fired timer should be false")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d collisions", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMeanRoughlyCorrect(t *testing.T) {
	r := NewRNG(11)
	mean := 100 * Millisecond
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if got < 0.9*float64(mean) || got > 1.1*float64(mean) {
		t.Fatalf("empirical mean %.0f, want ~%d", got, mean)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams too correlated: %d", same)
	}
}

// TestNextSettlesATiedRoot is the settle side of next's gate: a heap root
// whose stored instant ties the best line head is settled before the two
// are compared, because its stored seq need not be the one it stands for.
// A timer armed for 10 ms, stopped and armed for 10 ms again keeps the
// first arm's entry, stamped below the head's seq, while its real stamp
// is above it: compared unsettled it would fire first. A stopped timer
// whose entry ties the head is reaped on the way.
func TestNextSettlesATiedRoot(t *testing.T) {
	e := NewEngine()
	var got []string
	tm := e.NewTimer()
	fire := func(Time) { got = append(got, "timer") }
	l := e.NewLine(func(Time, any) { got = append(got, "line") })
	tm.Reset(10*Millisecond, fire) // entry (10 ms, 1)
	tm.Stop()
	l.Schedule(10*Millisecond, nil) // head (10 ms, 2)
	tm.Reset(10*Millisecond, fire)  // stamp (10 ms, 3), entry unmoved
	e.Run()
	if len(got) != 2 || got[0] != "line" || got[1] != "timer" {
		t.Fatalf("dispatch order %v, want [line timer]", got)
	}

	e = NewEngine()
	tm = e.NewTimer()
	tm.Reset(10*Millisecond, func(Time) { t.Fatal("stopped timer fired") })
	tm.Stop()
	e.NewLine(func(Time, any) {}).Schedule(10*Millisecond, nil)
	if !e.Step() || e.EventsRun() != 1 {
		t.Fatal("the line head did not fire")
	}
	if len(e.events) != 0 {
		t.Fatalf("heap holds %d entries after the tie, want the stopped timer's reaped", len(e.events))
	}
}

// TestNextSkipsALaterRoot is the other side: a root whose stored instant
// is later than the best head cannot win, since settling never moves a
// stamp earlier, so next does not settle it. A stopped timer's entry and
// a timer re-armed later stay as they were while a line fires before
// them; the run reaps the one and fires the other at its own stamp.
func TestNextSkipsALaterRoot(t *testing.T) {
	e := NewEngine()
	stopped := e.NewTimer()
	stopped.Reset(20*Millisecond, func(Time) { t.Fatal("stopped timer fired") })
	stopped.Stop()
	var firedAt []Time
	later := e.NewTimer()
	later.Reset(25*Millisecond, func(now Time) { firedAt = append(firedAt, now) })
	later.Reset(30*Millisecond, func(now Time) { firedAt = append(firedAt, now) })
	l := e.NewLine(func(now Time, _ any) { firedAt = append(firedAt, now) })
	l.Schedule(10*Millisecond, nil)
	if !e.Step() || e.Now() != 10*Millisecond {
		t.Fatalf("first step ran to %v, want the line head at 10ms", e.Now())
	}
	if len(e.events) != 2 || e.events[0].at != 20*Millisecond || e.events[0].timer != stopped {
		t.Fatalf("heap changed while its root could not win: %d entries, root at %v", len(e.events), e.events[0].at)
	}
	if later.idx < 0 || e.events[later.idx].at != 25*Millisecond {
		t.Fatal("the re-armed timer's entry moved before it could win")
	}
	e.Run()
	if len(firedAt) != 2 || firedAt[0] != 10*Millisecond || firedAt[1] != 30*Millisecond || e.EventsRun() != 2 {
		t.Fatalf("fired at %v after %d events, want [10ms 30ms] after 2", firedAt, e.EventsRun())
	}
	if len(e.events) != 0 {
		t.Fatalf("heap holds %d entries after the run", len(e.events))
	}
}
