package sim

import "testing"

// Each hot-path workload builds a warm engine and returns the operation
// one iteration performs. The Benchmark* functions time the operation
// (go test -bench; the committed nanoseconds are the sim.probe_* metrics
// of bench/) and TestZeroAllocHotPath holds every one to 0 allocs/op.
var hotPathWorkloads = []struct {
	name string
	warm func() (op func())
}{
	{"dispatch", dispatchWorkload},
	{"deep heap", deepHeapWorkload},
	{"delay line", delayLineWorkload},
	{"line re-armed from its own callback", selfArmedLineWorkload},
	{"timer re-armed from its own callback", selfArmedTimerWorkload},
	{"lazy timer", lazyTimerWorkload},
	{"timer churn", timerChurnWorkload},
}

func benchWorkload(b *testing.B, warm func() func()) {
	op := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// dispatchWorkload is the bare schedule+dispatch round trip: a single
// self-rescheduling event, so every iteration is one heap push, one heap
// pop, and one callback. This is the loop every virtual packet crosses at
// least twice.
func dispatchWorkload() func() {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	return func() { e.Step() }
}

func BenchmarkEngineDispatch(b *testing.B) { benchWorkload(b, dispatchWorkload) }

// deepHeapWorkload is dispatch with 4096 events pending — the regime a
// busy experiment (hundreds of in-flight packets, timers, samplers)
// actually runs in, where heap arity and comparison count dominate.
func deepHeapWorkload() func() {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Millisecond, tick) }
	for i := 0; i < 4096; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	return func() { e.Step() }
}

func BenchmarkEngineDeepHeap(b *testing.B) { benchWorkload(b, deepHeapWorkload) }

// delayLineWorkload is a packet's trip through a FIFO stage with 256
// entries in flight (a 50 Mbps downstream hop holds about 80): one line
// enqueue and one dispatch per iteration. The line has one armed head and
// no heap entry, so unlike the deep heap the cost does not grow with the
// number of entries in flight.
func delayLineWorkload() func() {
	e := NewEngine()
	arg := new(int)
	var l *Line
	l = e.NewLine(func(Time, any) { l.After(Millisecond, arg) })
	for i := 0; i < 256; i++ {
		l.Schedule(Time(i)*Microsecond, arg)
	}
	return func() { e.Step() }
}

func BenchmarkDelayLine(b *testing.B) { benchWorkload(b, delayLineWorkload) }

// selfArmedLineWorkload is the serializer shape: a line that holds one
// entry and enqueues the next from its own callback, beside three other
// armed lines (the stages a packet crosses). Every iteration empties the
// line (its slot is given to the last) and arms it again (a new slot).
func selfArmedLineWorkload() func() {
	e := NewEngine()
	arg := new(int)
	for i := 0; i < 3; i++ {
		var l *Line
		l = e.NewLine(func(Time, any) { l.After(3*Microsecond, arg) })
		l.After(Time(i)*Microsecond, arg)
		l.After(Time(i)*Microsecond+Millisecond, arg)
	}
	var ser *Line
	ser = e.NewLine(func(Time, any) { ser.After(Microsecond, arg) })
	ser.After(Microsecond, arg)
	return func() { e.Step() }
}

func BenchmarkSelfArmedLine(b *testing.B) { benchWorkload(b, selfArmedLineWorkload) }

// selfArmedTimerWorkload is the pacer shape: a timer whose callback
// re-arms it, with 8 one-shots pending beside it. The fired entry stays
// in the heap and is moved to the new deadline when it surfaces; nothing
// is popped or pushed for the timer.
func selfArmedTimerWorkload() func() {
	e := NewEngine()
	t := e.NewTimer()
	var pace Event
	pace = func(Time) { t.Reset(3*Microsecond, pace) }
	t.Reset(Microsecond, pace)
	var tick Event
	tick = func(Time) { e.After(8*Microsecond, tick) }
	for i := 0; i < 8; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	return func() { e.Step() }
}

func BenchmarkSelfArmedTimer(b *testing.B) { benchWorkload(b, selfArmedTimerWorkload) }

// lazyTimerWorkload is the RTO pattern: Stop, then Reset to a deadline
// later than the pending one, on every packet, with 64 other events
// pending. The heap entry is only touched when it surfaces (once per
// 20 ms of virtual time here), not on every re-arm.
func lazyTimerWorkload() func() {
	e := NewEngine()
	fn := func(Time) {}
	t := e.NewTimer()
	var tick Event
	tick = func(now Time) { e.After(64*Microsecond, tick) }
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	return func() {
		t.Stop()
		t.Reset(20*Millisecond, fn)
		e.Step()
	}
}

func BenchmarkEngineLazyTimer(b *testing.B) { benchWorkload(b, lazyTimerWorkload) }

// timerChurnWorkload is the arm/cancel cycle transport flows perform on
// every ACK (RTO re-arm) and every paced send: one reusable timer, Reset
// and Stopped per operation, as Flow does with its pacing and RTO timers.
func timerChurnWorkload() func() {
	e := NewEngine()
	fn := func(Time) {}
	t := e.NewTimer()
	// Keep the clock moving so deadlines stay in the future.
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	return func() {
		t.Reset(Millisecond, fn)
		t.Stop()
		e.Step()
	}
}

func BenchmarkEngineTimerChurn(b *testing.B) { benchWorkload(b, timerChurnWorkload) }
