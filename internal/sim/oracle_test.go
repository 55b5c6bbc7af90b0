package sim

import "fmt"

// This file is the event engine as it stood before delay lines and lazy
// timers: every arm is one heap entry, Timer.Stop removes its entry
// eagerly and Reset is Stop plus push. It is kept, renamed, as the oracle
// that defines "same" for TestEngineOrderMatchesOracle and FuzzEngineOrder;
// nothing outside tests may use it.

// oracleEntry is a heap entry, stored by value: the event queue owns its
// entries in one contiguous slice, so steady-state scheduling recycles
// slots instead of allocating per event. Exactly one of fn and argFn is
// set. seq breaks ties so that events oracleEntry for the same instant run
// in FIFO order, keeping the simulation deterministic — and because
// (at, seq) is a strict total order, dispatch order is independent of the
// heap's internal layout.
type oracleEntry struct {
	at     Time
	seq    uint64
	fn     Event
	argFn  ArgEvent
	arg    any
	cancel *oracleTimer
}

func oracleLess(a, b *oracleEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle for a cancellable oracleEntry event. A Timer can be
// reused across arm/cancel cycles with Reset, which is how the transport
// hot path (RTO re-arm on every ACK, pacing on every send) avoids
// allocating a handle per arm. idx is the entry's index in the event
// queue, -1 when idle (fired, stopped, or never armed).
type oracleTimer struct {
	engine *oracleEngine
	idx    int
}

// NewTimer returns an idle reusable timer. Arm it with Reset.
func (e *oracleEngine) NewTimer() *oracleTimer {
	return &oracleTimer{engine: e, idx: -1}
}

// Reset arms the timer to run fn after d, cancelling any pending arm
// first. It is the allocation-free counterpart of AfterTimer.
func (t *oracleTimer) Reset(d Time, fn Event) {
	t.Stop()
	if d < 0 {
		d = 0
	}
	e := t.engine
	e.seq++
	e.push(oracleEntry{at: e.now + d, seq: e.seq, fn: fn, cancel: t})
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// timer was still pending.
func (t *oracleTimer) Stop() bool {
	if t == nil || t.idx < 0 {
		return false
	}
	t.engine.remove(t.idx)
	t.idx = -1
	return true
}

// Pending reports whether the timer is still oracleEntry to fire.
func (t *oracleTimer) Pending() bool { return t != nil && t.idx >= 0 }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation is a deterministic sequential program.
//
// The event queue is a 4-ary min-heap ordered by (at, seq), stored by
// value in one slice. 4-ary beats binary here: sift-down visits 4 children
// per level but the tree is half as deep, and the children share cache
// lines — dispatch in a busy experiment (thousands of pending events) is
// dominated by sift-down cache misses, not comparisons.
type oracleEngine struct {
	now    Time
	seq    uint64
	events []oracleEntry
	// Ran counts executed events, useful for budget checks in tests.
	ran uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func newOracleEngine() *oracleEngine {
	return &oracleEngine{}
}

// Now returns the current virtual time.
func (e *oracleEngine) Now() Time { return e.now }

// EventsRun reports the number of events executed so far.
func (e *oracleEngine) EventsRun() uint64 { return e.ran }

// Pending reports the number of events waiting in the queue.
func (e *oracleEngine) Pending() int { return len(e.events) }

// push appends an entry and restores the heap property.
func (e *oracleEngine) push(s oracleEntry) {
	e.events = append(e.events, s)
	e.siftUp(len(e.events) - 1)
}

// siftUp moves the entry at i toward the root until ordered, keeping
// Timer indices in sync. The entry is held in a register and written once
// into its final slot (hole-based sift), halving the copies of a
// swap-based loop.
func (e *oracleEngine) siftUp(i int) {
	h := e.events
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !oracleLess(&s, &h[p]) {
			break
		}
		h[i] = h[p]
		if h[i].cancel != nil {
			h[i].cancel.idx = i
		}
		i = p
	}
	h[i] = s
	if s.cancel != nil {
		s.cancel.idx = i
	}
}

// siftDown moves the entry at i toward the leaves until ordered.
func (e *oracleEngine) siftDown(i int) {
	h := e.events
	n := len(h)
	s := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if oracleLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !oracleLess(&h[m], &s) {
			break
		}
		h[i] = h[m]
		if h[i].cancel != nil {
			h[i].cancel.idx = i
		}
		i = m
	}
	h[i] = s
	if s.cancel != nil {
		s.cancel.idx = i
	}
}

// popRoot removes and returns the minimum entry. The vacated tail slot is
// zeroed so the slice does not retain callback or argument references.
func (e *oracleEngine) popRoot() oracleEntry {
	h := e.events
	s := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
	}
	h[n] = oracleEntry{}
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	} else if n == 1 && h[0].cancel != nil {
		h[0].cancel.idx = 0
	}
	return s
}

// remove deletes the entry at i (timer cancellation), moving the tail
// entry into the gap and re-sifting it in whichever direction restores
// order. The vacated tail slot is zeroed so no references leak.
func (e *oracleEngine) remove(i int) {
	h := e.events
	n := len(h) - 1
	if i != n {
		moved := h[n]
		h[i] = moved
		h[n] = oracleEntry{}
		e.events = h[:n]
		e.siftDown(i)
		if e.events[i].seq == moved.seq {
			e.siftUp(i)
		}
	} else {
		h[n] = oracleEntry{}
		e.events = h[:n]
	}
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before the current time) panics: it always indicates a logic bug in a
// substrate, and silently reordering events would corrupt causality.
func (e *oracleEngine) Schedule(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(oracleEntry{at: at, seq: e.seq, fn: fn})
}

// ScheduleArg runs fn(at, arg) at absolute virtual time at. Unlike
// wrapping arg in a closure, this path is allocation-free when arg is a
// pointer: the hot substrates prebind one ArgEvent per code path and
// thread the packet through as the argument.
func (e *oracleEngine) ScheduleArg(at Time, fn ArgEvent, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(oracleEntry{at: at, seq: e.seq, argFn: fn, arg: arg})
}

// After runs fn after delay d (relative scheduling).
func (e *oracleEngine) After(d Time, fn Event) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *oracleEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	s := e.popRoot()
	if s.cancel != nil {
		s.cancel.idx = -1
	}
	e.now = s.at
	e.ran++
	if s.argFn != nil {
		s.argFn(e.now, s.arg)
	} else {
		s.fn(e.now)
	}
	return true
}

// RunUntil executes events until the clock would pass deadline or the
// queue drains. The clock is left at min(deadline, last event time); events
// oracleEntry after deadline remain queued.
func (e *oracleEngine) RunUntil(deadline Time) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run drains the event queue completely. Most experiments should prefer
// RunUntil with an explicit horizon; Run exists for self-terminating
// workloads such as fixed-size file downloads in tests.
func (e *oracleEngine) Run() {
	for len(e.events) > 0 {
		e.Step()
	}
}
