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
// slots instead of allocating per event. An entry is one of three kinds:
// a plain event (fn), an argument event (argFn, arg), or the one physical
// entry of a Timer (timer; the callback lives in the handle). Delay lines
// have no heap entries: their heads wait in Engine.heads.
// seq breaks ties so that events scheduled for the same instant run in
// FIFO order, keeping the simulation deterministic — and because
// (at, seq) is a strict total order, dispatch order is independent of the
// heap's internal layout and of where an entry waits.
type scheduled struct {
	at    Time
	seq   uint64
	fn    Event
	argFn ArgEvent
	arg   any
	timer *Timer
}

// lineHead is the armed head of a non-empty Line: the (at, seq) its front
// entry was stamped with at enqueue. Callback and argument stay in the line.
type lineHead struct {
	at   Time
	seq  uint64
	line *Line
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
// Pending events wait in two places. Timers and one-shots (Schedule,
// After and their Arg forms) are in a 4-ary min-heap ordered by (at, seq),
// stored by value in one slice; 4-ary beats binary here because sift-down
// visits 4 children per level but the tree is half as deep, and the
// children share cache lines. The head of every non-empty Line is in
// heads, a dense unordered slice that the run loop scans: arming, firing
// and emptying a line move no heap entry. The run loop scans the heads
// first and consults the heap root only when it can win (see next), so
// an event that a line head wins leaves the heap untouched. The scan is
// short because a stage that holds many packets holds them in one ring
// behind one head; only the per-flow upstream lines are many, and no more
// of them are non-empty at once than there are packets inside the few
// milliseconds of the upstream hop.
//
// Ordering contract: every arm (Schedule, After, Timer.Reset, Line
// enqueue) consumes exactly one seq and is dispatched at its (at, seq)
// place in the strict total order over everything pending, heap and
// lines alike. A Line or a lazy Timer changes *where* an entry waits,
// never its (at, seq): a line arms one head however many entries it
// holds and a timer keeps one physical heap entry however often it is
// re-armed, so the heap holds O(timers + one-shots) entries, the scan
// O(non-empty lines), and the callback sequence is the one a plain heap
// of every arm would produce.
type Engine struct {
	now    Time
	seq    uint64
	events []scheduled
	heads  []lineHead
	// ran counts executed events; the run loops poll the abort flag
	// every 1024 of them.
	ran uint64
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

// settle resolves the heap root until it is an entry that will really
// run, and reports whether one exists. The entry of a stopped timer, or
// of a fired one that was not re-armed, is reaped, and a timer re-armed
// to a later deadline is moved to its current stamp; both are invisible
// to the simulation: no clock advance, no event count, no callback.
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

// next finds the (at, seq) minimum over everything pending: the best of
// the armed line heads, then the heap root only when it can win. A root's
// stored stamp is a lower bound on what it stands for: settle reaps it or
// moves it to its timer's current stamp, which is never earlier, because
// Timer.Reset moves an entry only to an earlier deadline. So a root whose
// stored instant is later than the best head's loses without being
// settled, and only a tie or an earlier instant pays for settle. next
// reports the instant, the index in heads of the line to fire or -1 for
// the heap root, and false when nothing is pending.
func (e *Engine) next() (at Time, head int, ok bool) {
	head = -1
	var seq uint64
	for i := range e.heads {
		h := &e.heads[i]
		if head < 0 || h.at < at || h.at == at && h.seq < seq {
			at, seq, head = h.at, h.seq, i
		}
	}
	if (head < 0 || len(e.events) > 0 && e.events[0].at <= at) && e.settle() {
		r := &e.events[0]
		if head < 0 || r.at < at || r.at == at && r.seq < seq {
			return r.at, -1, true
		}
	}
	return at, head, head >= 0
}

// dispatch runs what next chose. A line's slot is re-armed with the
// stamped pair of its next entry, or removed (the last slot takes its
// place) when the ring empties, before the callback runs, so a callback
// that enqueues on its own line finds it consistent. A fired timer is
// marked idle and its entry left at the root for settle: a callback that
// re-arms the timer costs one move instead of a pop and a push.
func (e *Engine) dispatch(at Time, head int) {
	e.now = at
	e.ran++
	if head >= 0 {
		l := e.heads[head].line
		arg := l.q.PopFront().arg
		if l.q.Len() > 0 {
			next := l.q.Front()
			e.heads[head].at, e.heads[head].seq = next.at, next.seq
		} else {
			n := len(e.heads) - 1
			e.heads[head] = e.heads[n]
			e.heads = e.heads[:n]
		}
		l.fn(at, arg)
		return
	}
	if t := e.events[0].timer; t != nil {
		t.armed = false
		t.fn(at)
		return
	}
	s := e.popRoot()
	if s.argFn != nil {
		s.argFn(at, s.arg)
	} else {
		s.fn(at)
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when no event is pending.
func (e *Engine) Step() bool {
	at, head, ok := e.next()
	if ok {
		e.dispatch(at, head)
	}
	return ok
}

// RunUntil executes events until the clock would pass deadline or
// nothing is pending. The clock is left at min(deadline, last event
// time); events scheduled after deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		at, head, ok := e.next()
		if !ok || at > deadline {
			break
		}
		e.pollAbort()
		e.dispatch(at, head)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) pollAbort() {
	if e.abort != nil && e.ran&1023 == 0 && e.abort.Load() {
		panic(Aborted{At: e.now})
	}
}
