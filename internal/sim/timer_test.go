package sim

import "testing"

// TestTimerCancelLeavesNoHeapEntry states the cancellation contract. A
// timer owns at most one heap entry however often it is re-armed, and
// Stop is lazy: the entry stays where it is, is never dispatched, and is
// reaped when its instant comes up, so it never outlives that instant.
// Transport flows re-arm their RTO on every ACK; one dead entry per ACK
// would drag every sift through them, and one eager removal per ACK is
// the mid-heap churn this contract replaced.
func TestTimerCancelLeavesNoHeapEntry(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func(Time) { fired++ }
	const n = 1000
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = e.AfterTimer(Time(i+1)*Millisecond, fn)
	}
	if got := e.Pending(); got != n {
		t.Fatalf("Pending() = %d after arming %d timers", got, n)
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop reported timer already inactive")
		}
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after stopping every timer; cancelled entries count as pending", got)
	}
	// Cancelled entries are invisible: no step to take, clock and event
	// count untouched.
	if e.Step() {
		t.Fatal("Step ran something with only cancelled entries queued")
	}
	if e.Now() != 0 || e.EventsRun() != 0 || fired != 0 {
		t.Fatalf("cancelled entries were visible: now %v, events run %d, fired %d", e.Now(), e.EventsRun(), fired)
	}
	if got := len(e.events); got != 0 {
		t.Fatalf("%d cancelled entries left in the heap after Step found nothing to run", got)
	}

	// A cancelled entry does not outlive its instant: once the clock has
	// reached it, it is gone, though nothing ran for it.
	for i := range timers {
		timers[i].Reset(Time(i+1)*Millisecond, fn)
		timers[i].Stop()
	}
	e.After(n/2*Millisecond, func(Time) {})
	e.RunUntil(n / 2 * Millisecond)
	if got := len(e.events); got > n/2 {
		t.Fatalf("%d heap entries at %v; the %d cancelled entries due by then outlived their instant", got, e.Now(), n/2)
	}
	if e.EventsRun() != 1 || fired != 0 {
		t.Fatalf("events run %d, fired %d; want only the marker event", e.EventsRun(), fired)
	}

	// Churn: repeated arm/cancel through one reusable timer keeps one entry.
	e = NewEngine()
	tm := e.NewTimer()
	for i := 0; i < 10_000; i++ {
		tm.Reset(Millisecond, fn)
		if i%3 == 0 {
			tm.Stop()
		}
	}
	if got := len(e.events); got != 1 {
		t.Fatalf("%d heap entries after 10k Resets of one timer, want 1", got)
	}
	tm.Stop()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after final Stop", got)
	}
}

// TestTimerChurnDoesNotGrowHeap runs the loop bench/'s
// sim.probe_timer_churn_ns times (Reset, Stop, Step beside a ticking
// clock) a million times. The timer's one entry surfaces every
// millisecond of virtual time and is reaped or moved; the heap must end,
// and stay, at the size it started.
func TestTimerChurnDoesNotGrowHeap(t *testing.T) {
	e := NewEngine()
	fn := func(Time) { t.Fatal("stopped timer fired") }
	tm := e.NewTimer()
	var tick Event
	tick = func(Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	tm.Reset(Millisecond, fn)
	start := len(e.events)
	rounds := 1_000_000
	if testing.Short() {
		rounds = 100_000
	}
	for i := 0; i < rounds; i++ {
		tm.Reset(Millisecond, fn)
		tm.Stop()
		e.Step()
		if got := len(e.events); got > start {
			t.Fatalf("round %d: heap holds %d entries, started at %d", i, got, start)
		}
	}
	if got := e.EventsRun(); got != uint64(rounds) {
		t.Fatalf("EventsRun() = %d after %d steps; reaping or moving the timer entry was counted", got, rounds)
	}
}

// TestFiredTimerKeepsItsEntryUntilSettled states what firing does to the
// timer's one heap entry: nothing. The timer is idle during and after its
// callback (Pending false, not counted by Engine.Pending), and the entry
// is moved when the callback re-armed the timer (the pacer shape: no pop,
// no push, the heap never changes size) or reaped when it did not.
func TestFiredTimerKeepsItsEntryUntilSettled(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer()
	var fired []Time
	var pace Event
	pace = func(now Time) {
		if tm.Pending() {
			t.Fatal("timer pending inside its own callback")
		}
		if got := e.Pending(); got != 1 {
			t.Fatalf("Pending() = %d inside the callback, want 1 (the far event only)", got)
		}
		fired = append(fired, now)
		if len(fired) < 5 {
			tm.Reset(2*Millisecond, pace)
		}
	}
	e.After(Second, func(Time) {})
	tm.Reset(2*Millisecond, pace)
	for i := 0; i < 5; i++ {
		if got, heap := e.Pending(), len(e.events); got != 2 || heap != 2 {
			t.Fatalf("before firing %d: Pending() = %d, heap %d, want 2 and 2", i, got, heap)
		}
		if !e.Step() {
			t.Fatal("nothing to step")
		}
	}
	for i, at := range fired {
		if want := Time(i+1) * 2 * Millisecond; at != want {
			t.Fatalf("firing %d at %v, want %v", i, at, want)
		}
	}
	// The last callback did not re-arm: the entry is still there, dead.
	if got, heap := e.Pending(), len(e.events); got != 1 || heap != 2 || tm.Pending() {
		t.Fatalf("after the last firing: Pending() = %d, heap %d, timer pending %v; want 1, 2, false", got, heap, tm.Pending())
	}
	if tm.Stop() {
		t.Fatal("Stop reported a fired timer as pending")
	}
	e.Run()
	if got := e.EventsRun(); got != 6 {
		t.Fatalf("EventsRun() = %d, want 6; reaping the fired entry was counted or it fired again", got)
	}
	if e.Pending() != 0 || len(e.events) != 0 {
		t.Fatalf("drained: Pending() = %d, heap %d", e.Pending(), len(e.events))
	}
	// And the idle timer arms again with a fresh entry.
	tm.Reset(Millisecond, func(now Time) { fired = append(fired, now) })
	e.Run()
	if len(fired) != 6 || fired[5] != Second+Millisecond {
		t.Fatalf("re-armed after reap: fired %v", fired)
	}
}

// TestTimerResetSemantics pins the reusable-timer contract: Reset re-arms
// (cancelling any pending arm), the callback fires at the new deadline
// only, and a fired timer reports not-pending and can be re-armed.
func TestTimerResetSemantics(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer()
	if tm.Pending() {
		t.Fatal("fresh timer reports pending")
	}
	tm.Reset(5*Millisecond, func(now Time) { fired = append(fired, now) })
	tm.Reset(9*Millisecond, func(now Time) { fired = append(fired, now) })
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 9*Millisecond {
		t.Fatalf("fired = %v, want exactly one firing at 9ms", fired)
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	// Re-arm after firing.
	tm.Reset(Millisecond, func(now Time) { fired = append(fired, now) })
	e.Run()
	if len(fired) != 2 || fired[1] != 10*Millisecond {
		t.Fatalf("fired = %v, want second firing at 10ms", fired)
	}
}

// TestTimerStopMidHeap stops timers from the middle of a populated heap
// and verifies the survivors still fire in deadline order and the stopped
// ones, whose entries stay in the heap until their instant, never do.
func TestTimerStopMidHeap(t *testing.T) {
	e := NewEngine()
	const n = 64
	var fired []int
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		i := i
		timers[i] = e.AfterTimer(Time(n-i)*Millisecond, func(Time) { fired = append(fired, i) })
	}
	for i := 0; i < n; i += 2 {
		timers[i].Stop()
	}
	e.Run()
	if len(fired) != n/2 {
		t.Fatalf("fired %d callbacks, want %d", len(fired), n/2)
	}
	// Deadline of timer i is (n-i)ms, so survivors fire in descending i.
	for k := 1; k < len(fired); k++ {
		if fired[k] >= fired[k-1] {
			t.Fatalf("firing order broken at %d: %v", k, fired)
		}
	}
	for _, i := range fired {
		if i%2 == 0 {
			t.Fatalf("stopped timer %d fired", i)
		}
	}
}
