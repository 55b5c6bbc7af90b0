package sim

import "testing"

// TestLineKeepsOnlyItsHeadInTheHeap pins the structural property: a line
// with many entries in flight costs the heap one entry, and entries fire
// in enqueue order at their stamped instants.
func TestLineKeepsOnlyItsHeadInTheHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	l := e.NewLine(func(now Time, arg any) {
		if want := Time(arg.(int)/2) * Microsecond; now != want {
			t.Fatalf("entry %d fired at %v, want %v", arg, now, want)
		}
		got = append(got, arg.(int))
	})
	const n = 100 // crosses several ring growths
	for i := 0; i < n; i++ {
		l.Schedule(Time(i/2)*Microsecond, i) // pairs of equal instants
	}
	if len(e.events) != 1 {
		t.Fatalf("heap holds %d entries for one line, want 1", len(e.events))
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
	}
	// Drain half, refill, drain: the ring wraps.
	for i := 0; i < n/2; i++ {
		e.Step()
	}
	for i := n; i < n+n/2; i++ {
		l.Schedule(Time(i/2)*Microsecond, i)
	}
	e.Run()
	if len(got) != n+n/2 {
		t.Fatalf("ran %d entries, want %d", len(got), n+n/2)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("entry %d fired in position %d", v, i)
		}
	}
	if e.Pending() != 0 || len(e.events) != 0 {
		t.Fatalf("drained line left Pending() = %d, heap %d", e.Pending(), len(e.events))
	}
}

// TestLineInterleavesWithHeapBySeq checks that a line entry keeps the seq
// it was stamped with while it waits in the ring: events scheduled on the
// plain heap for the same instant, before and after it, run around it in
// scheduling order.
func TestLineInterleavesWithHeapBySeq(t *testing.T) {
	e := NewEngine()
	var got []string
	l := e.NewLine(func(_ Time, arg any) { got = append(got, arg.(string)) })
	mark := func(s string) Event { return func(Time) { got = append(got, s) } }
	l.Schedule(Millisecond, "L1")
	e.Schedule(Millisecond, mark("a"))
	l.Schedule(Millisecond, "L2") // behind L1 in the ring, not in the heap
	e.Schedule(Millisecond, mark("b"))
	l.Schedule(Millisecond, "L3")
	e.Run()
	want := []string{"L1", "a", "L2", "b", "L3"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestLineOutOfOrderFallsBack checks that an entry earlier than the one
// before it is dispatched at its own instant (as a plain heap entry)
// rather than panicking or waiting behind the line.
func TestLineOutOfOrderFallsBack(t *testing.T) {
	e := NewEngine()
	var got []int
	l := e.NewLine(func(_ Time, arg any) { got = append(got, arg.(int)) })
	l.After(10*Millisecond, 1)
	l.After(10*Millisecond, 2)
	l.After(3*Millisecond, 3) // a shortened delay: earlier than the tail
	l.After(10*Millisecond, 4)
	if e.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", e.Pending())
	}
	e.RunUntil(5 * Millisecond)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("by 5ms ran %v, want [3]", got)
	}
	e.Run()
	want := []int{3, 1, 2, 4}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestLineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	l := e.NewLine(func(Time, any) {})
	e.After(Second, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	l.Schedule(Millisecond, nil)
}

// TestZeroAllocHotPath holds the per-packet paths to 0 allocs/op once
// warm: every benchmark workload (dispatch, deep heap, delay line, lazy
// timer, timer churn), a line enqueue and fire with a pointer argument,
// and the RTO pattern (Stop, Reset to a later deadline) beside a ticking
// clock.
func TestZeroAllocHotPath(t *testing.T) {
	for _, w := range hotPathWorkloads {
		if n := testing.AllocsPerRun(1000, w.warm()); n != 0 {
			t.Errorf("%s allocates %v times per op", w.name, n)
		}
	}
	e := NewEngine()
	arg := new(int)
	l := e.NewLine(func(Time, any) {})
	for i := 0; i < 64; i++ {
		l.After(Millisecond, arg)
	}
	if n := testing.AllocsPerRun(1000, func() {
		l.After(Millisecond, arg)
		e.Step()
	}); n != 0 {
		t.Errorf("line enqueue+fire allocates %v times per op", n)
	}
	tm := e.NewTimer()
	fn := func(Time) {}
	if n := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm.Reset(20*Millisecond, fn)
		l.After(Millisecond, arg)
		e.Step()
	}); n != 0 {
		t.Errorf("timer re-arm allocates %v times per op", n)
	}
}
