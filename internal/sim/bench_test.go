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
// enqueue and one dispatch per iteration. Only the line's head is in the
// heap, so unlike the deep heap the cost does not grow with the number of
// entries in flight.
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
