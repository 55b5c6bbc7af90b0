package sim

import "testing"

// BenchmarkEngineDispatch measures the bare schedule+dispatch round trip:
// a single self-rescheduling event, so every iteration is one heap push,
// one heap pop, and one callback. This is the loop every virtual packet
// crosses at least twice; its allocs/op must be zero (the regression gate
// in scripts/bench.sh -check enforces that against BENCH_sim.json).
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineDeepHeap measures dispatch with 4096 events pending —
// the regime a busy experiment (hundreds of in-flight packets, timers,
// samplers) actually runs in, where heap arity and comparison count
// dominate.
func BenchmarkEngineDeepHeap(b *testing.B) {
	e := NewEngine()
	var tick Event
	tick = func(now Time) { e.After(Millisecond, tick) }
	for i := 0; i < 4096; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkDelayLine measures a packet's trip through a FIFO stage with
// 256 entries in flight (a 50 Mbps downstream hop holds about 80): one
// line enqueue and one dispatch per iteration. Only the line's head is in
// the heap, so unlike BenchmarkEngineDeepHeap the cost does not grow with
// the number of entries in flight.
func BenchmarkDelayLine(b *testing.B) {
	e := NewEngine()
	arg := new(int)
	var l *Line
	l = e.NewLine(func(Time, any) { l.After(Millisecond, arg) })
	for i := 0; i < 256; i++ {
		l.Schedule(Time(i)*Microsecond, arg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineLazyTimer measures the RTO pattern: Stop, then Reset to
// a deadline later than the pending one, on every packet, with 64 other
// events pending. The heap entry is only touched when it surfaces (once
// per 20 ms of virtual time here), not on every re-arm.
func BenchmarkEngineLazyTimer(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	t := e.NewTimer()
	var tick Event
	tick = func(now Time) { e.After(64*Microsecond, tick) }
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Stop()
		t.Reset(20*Millisecond, fn)
		e.Step()
	}
}

// BenchmarkEngineTimerChurn measures the arm/cancel cycle transport flows
// perform on every ACK (RTO re-arm) and every paced send: one reusable
// timer, Reset and Stopped per operation, as Flow does with its pacing
// and RTO timers.
func BenchmarkEngineTimerChurn(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	t := e.NewTimer()
	// Keep the clock moving so deadlines stay in the future.
	var tick Event
	tick = func(now Time) { e.After(Microsecond, tick) }
	e.After(Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(Millisecond, fn)
		t.Stop()
		e.Step()
	}
}
