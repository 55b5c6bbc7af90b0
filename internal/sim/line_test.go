package sim

import (
	"slices"
	"testing"
)

// TestLineHoldsOneArmedHeadAndNoHeapEntry pins the structural property: a
// line with many entries in flight costs the scan one armed head and the
// heap nothing, entries fire in enqueue order at their stamped instants,
// and a drained line leaves no head behind.
func TestLineHoldsOneArmedHeadAndNoHeapEntry(t *testing.T) {
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
	if HeapLen(e) != 0 || ActiveLines(e) != 1 {
		t.Fatalf("one line holds %d heap entries and %d armed heads, want 0 and 1", HeapLen(e), ActiveLines(e))
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
	}
	// Drain half, refill, drain: the ring wraps.
	for i := 0; i < n/2; i++ {
		e.Step()
		if HeapLen(e) != 0 || ActiveLines(e) != 1 {
			t.Fatalf("after %d steps: %d heap entries and %d armed heads, want 0 and 1", i+1, HeapLen(e), ActiveLines(e))
		}
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
	if e.Pending() != 0 || HeapLen(e) != 0 || ActiveLines(e) != 0 {
		t.Fatalf("drained line left Pending() = %d, heap %d, armed heads %d", e.Pending(), HeapLen(e), ActiveLines(e))
	}
}

// TestEmptiedLineGivesItsSlotToTheLast drains lines in an order that
// makes every removal move another line's head into the freed slot, and
// checks that each line still fires its own entries, in order.
func TestEmptiedLineGivesItsSlotToTheLast(t *testing.T) {
	e := NewEngine()
	const lines = 5
	var got []int
	for i := 0; i < lines; i++ {
		i := i
		l := e.NewLine(func(_ Time, arg any) { got = append(got, 10*i+arg.(int)) })
		// Line i holds i+1 entries, one per millisecond: line 0 empties
		// first while it sits in slot 0, then line 1, and so on.
		for k := 0; k <= i; k++ {
			l.Schedule(Time(k)*Millisecond+Time(i)*Microsecond, k)
		}
	}
	for want := lines; want > 0; want-- {
		if ActiveLines(e) != want {
			t.Fatalf("at %v: %d armed heads, want %d", e.Now(), ActiveLines(e), want)
		}
		e.RunUntil(Time(lines-want)*Millisecond + 999*Microsecond)
	}
	if want := []int{0, 10, 20, 30, 40, 11, 21, 31, 41, 22, 32, 42, 33, 43, 44}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if ActiveLines(e) != 0 || e.Pending() != 0 {
		t.Fatalf("drained: %d armed heads, Pending() = %d", ActiveLines(e), e.Pending())
	}
}

// TestSameInstantFiresInSeqOrder arms three lines, a timer and two
// one-shots for one instant, interleaved, with a second entry behind one
// line's head. The armed slice, the heap and the rings hold them, and
// they fire in the order they were armed.
func TestSameInstantFiresInSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	mark := func(s string) Event { return func(Time) { got = append(got, s) } }
	lineFn := func(_ Time, arg any) { got = append(got, arg.(string)) }
	l1, l2, l3 := e.NewLine(lineFn), e.NewLine(lineFn), e.NewLine(lineFn)
	tm := e.NewTimer()
	const at = 3 * Millisecond
	l2.Schedule(at, "line2")
	e.Schedule(at, mark("shot1"))
	l1.Schedule(at, "line1")
	tm.Reset(at, mark("timer"))
	l3.Schedule(at, "line3")
	e.ScheduleArg(at, lineFn, "shot2")
	l2.Schedule(at, "line2 again")
	e.Run()
	if want := []string{"line2", "shot1", "line1", "timer", "line3", "shot2", "line2 again"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Fatalf("clock at %v, want %v", e.Now(), at)
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
	l.Schedule(Millisecond, "L2") // behind L1 in the ring, not armed
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
// warm: every benchmark workload (dispatch, deep heap, delay line, the
// serializer and pacer shapes that re-arm from their own callback, lazy
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
