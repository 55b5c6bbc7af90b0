package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

// ArgEvent is an Event that carries a caller-supplied argument. Packet
// substrates prebind one ArgEvent per code path and pass the packet as the
// argument, instead of allocating a fresh closure per packet.
type ArgEvent func(now Time, arg any)

// scheduled is a heap entry, stored by value: the event queue owns its
// entries in one contiguous slice, so steady-state scheduling recycles
// slots instead of allocating per event. An entry is one of four kinds:
// a plain event (fn), an argument event (argFn, arg), the one physical
// entry of a Timer (timer; the callback lives in the handle), or the
// armed head of a Line (line; callback and argument live in the line).
// seq breaks ties so that events scheduled for the same instant run in
// FIFO order, keeping the simulation deterministic — and because
// (at, seq) is a strict total order, dispatch order is independent of the
// heap's internal layout and of when an entry entered the heap.
type scheduled struct {
	at    Time
	seq   uint64
	fn    Event
	argFn ArgEvent
	arg   any
	timer *Timer
	line  *Line
}

func lessScheduled(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; a simulation is a deterministic sequential program.
//
// The event queue is a 4-ary min-heap ordered by (at, seq), stored by
// value in one slice. 4-ary beats binary here: sift-down visits 4 children
// per level but the tree is half as deep, and the children share cache
// lines.
//
// Ordering contract: every arm (Schedule, After, Timer.Reset, Line
// enqueue) consumes exactly one seq and is dispatched at its (at, seq)
// place in the strict total order. A Line or a lazy Timer may change
// *when* an entry enters the heap, never its (at, seq): a line keeps only
// its head in the heap and a timer keeps one physical entry however often
// it is re-armed, so the heap holds O(flows + stages) entries instead of
// one per packet in flight, and the callback sequence is the one a plain
// heap would produce.
type Engine struct {
	now    Time
	seq    uint64
	events []scheduled
	// ran counts executed events, useful for budget checks in tests.
	ran uint64
	// dead counts heap entries of stopped timers awaiting their reap;
	// lined counts line entries queued behind an armed head. Together
	// they reconcile len(events) with the number of live events.
	dead, lined int
	// abort, when set, is polled by the run loops (see SetAbort).
	abort *atomic.Bool
}

// Aborted is the panic value the run loops raise when an external
// supervisor trips the abort flag installed with SetAbort. It carries
// the virtual time the run had reached. Callers that arm an abort flag
// must be prepared to recover it (the watchdog's trial panic barrier
// converts it into a typed reap failure).
type Aborted struct {
	// At is the virtual time at which the abort was observed.
	At Time
}

// Error makes Aborted usable as an error value after recovery.
func (a Aborted) Error() string {
	return fmt.Sprintf("sim: run aborted at %v", a.At)
}

// SetAbort installs an externally-owned abort flag. The run loops poll
// it every 1024 dispatched events — cheap enough to leave the hot path
// allocation- and contention-free, tight enough that any *eventful*
// runaway simulation stops promptly — and raise Aborted when it reads
// true. A hard wedge inside a single event callback cannot be
// interrupted this way; supervisors must abandon the goroutine instead
// (see the core reaper). Passing nil removes the flag.
func (e *Engine) SetAbort(flag *atomic.Bool) { e.abort = flag }

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports the number of events waiting to run: cancelled timer
// entries still in the heap are not counted, line entries queued behind
// their head are.
func (e *Engine) Pending() int { return len(e.events) - e.dead + e.lined }

// push appends an entry and restores the heap property.
func (e *Engine) push(s scheduled) {
	e.events = append(e.events, s)
	e.siftUp(len(e.events) - 1)
}

// siftUp moves the entry at i toward the root until ordered, keeping
// Timer indices in sync. The entry is held in a register and written once
// into its final slot (hole-based sift), halving the copies of a
// swap-based loop.
func (e *Engine) siftUp(i int) {
	h := e.events
	s := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !lessScheduled(&s, &h[p]) {
			break
		}
		h[i] = h[p]
		if h[i].timer != nil {
			h[i].timer.idx = i
		}
		i = p
	}
	h[i] = s
	if s.timer != nil {
		s.timer.idx = i
	}
}

// siftDown moves the entry at i toward the leaves until ordered.
func (e *Engine) siftDown(i int) {
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
			if lessScheduled(&h[j], &h[m]) {
				m = j
			}
		}
		if !lessScheduled(&h[m], &s) {
			break
		}
		h[i] = h[m]
		if h[i].timer != nil {
			h[i].timer.idx = i
		}
		i = m
	}
	h[i] = s
	if s.timer != nil {
		s.timer.idx = i
	}
}

// popRoot removes and returns the minimum entry. The vacated tail slot is
// zeroed so the slice does not retain callback or argument references.
func (e *Engine) popRoot() scheduled {
	h := e.events
	s := h[0]
	n := len(h) - 1
	if n > 0 {
		h[0] = h[n]
	}
	h[n] = scheduled{}
	e.events = h[:n]
	if n > 1 {
		e.siftDown(0)
	} else if n == 1 && h[0].timer != nil {
		h[0].timer.idx = 0
	}
	return s
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// (before the current time) panics: it always indicates a logic bug in a
// substrate, and silently reordering events would corrupt causality.
func (e *Engine) Schedule(at Time, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(scheduled{at: at, seq: e.seq, fn: fn})
}

// ScheduleArg runs fn(at, arg) at absolute virtual time at. Unlike
// wrapping arg in a closure, this path is allocation-free when arg is a
// pointer: the hot substrates prebind one ArgEvent per code path and
// thread the packet through as the argument.
func (e *Engine) ScheduleArg(at Time, fn ArgEvent, arg any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	e.push(scheduled{at: at, seq: e.seq, argFn: fn, arg: arg})
}

// After runs fn after delay d (relative scheduling).
func (e *Engine) After(d Time, fn Event) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(now, arg) after delay d. See ScheduleArg.
func (e *Engine) AfterArg(d Time, fn ArgEvent, arg any) {
	if d < 0 {
		d = 0
	}
	e.ScheduleArg(e.now+d, fn, arg)
}

// settle resolves the root until it is an entry that will really run,
// and reports whether one exists. A stopped timer's entry is reaped and a
// timer re-armed to a later deadline is moved to its current stamp; both
// are invisible to the simulation: no clock advance, no EventsRun count,
// no callback.
func (e *Engine) settle() bool {
	for len(e.events) > 0 {
		root := &e.events[0]
		t := root.timer
		if t == nil {
			return true
		}
		if !t.armed {
			e.popRoot()
			t.idx = -1
			e.dead--
			continue
		}
		if root.at == t.at && root.seq == t.seq {
			return true
		}
		root.at, root.seq = t.at, t.seq
		e.siftDown(0)
	}
	return false
}

// dispatch runs the root entry, which settle has vetted. A line head is
// replaced in place by the line's next entry (one sift instead of a pop
// and a push); everything else is popped.
func (e *Engine) dispatch() {
	root := &e.events[0]
	e.now = root.at
	e.ran++
	switch {
	case root.line != nil:
		l := root.line
		arg := l.q.PopFront().arg
		if l.q.Len() > 0 {
			next := l.q.Front()
			root.at, root.seq = next.at, next.seq
			e.lined--
			e.siftDown(0)
		} else {
			e.popRoot()
		}
		l.fn(e.now, arg)
	case root.timer != nil:
		t := root.timer
		e.popRoot()
		t.idx = -1
		t.armed = false
		t.fn(e.now)
	default:
		s := e.popRoot()
		if s.argFn != nil {
			s.argFn(e.now, s.arg)
		} else {
			s.fn(e.now)
		}
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when no event is pending.
func (e *Engine) Step() bool {
	if !e.settle() {
		return false
	}
	e.dispatch()
	return true
}

// RunUntil executes events until the clock would pass deadline or the
// queue drains. The clock is left at min(deadline, last event time); events
// scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for e.settle() && e.events[0].at <= deadline {
		e.pollAbort()
		e.dispatch()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run drains the event queue completely. Most experiments should prefer
// RunUntil with an explicit horizon; Run exists for self-terminating
// workloads such as fixed-size file downloads in tests.
func (e *Engine) Run() {
	for e.settle() {
		e.pollAbort()
		e.dispatch()
	}
}

func (e *Engine) pollAbort() {
	if e.abort != nil && e.ran&1023 == 0 && e.abort.Load() {
		panic(Aborted{At: e.now})
	}
}
