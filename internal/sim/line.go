package sim

import "fmt"

// Line is a FIFO delay line: a stage whose entries fire in the order they
// were enqueued (a constant propagation delay, a per-flow monotone arrival
// clock, a serializer with one entry in flight). Entries wait in a ring
// buffer and a non-empty line has exactly one armed head in Engine.heads,
// which the run loop scans beside the heap root; a line never has a heap
// entry, so enqueueing, firing and re-arming it sift nothing.
//
// Each enqueue stamps (at, seq) exactly as ScheduleArg would — one seq per
// entry — and when the head fires the next entry is armed with the pair it
// was stamped with, not a fresh one. Dispatch is a strict total order on
// (at, seq), so the callback sequence is the one ScheduleArg would have
// produced. An entry that would break the line's order (earlier than the
// entry before it) is not an error: it goes to the heap as an ordinary
// ScheduleArg entry with its own stamp.
type Line struct {
	e  *Engine
	fn ArgEvent
	// q holds the waiting entries in order; its front is the armed one.
	q Ring[lineEntry]
}

type lineEntry struct {
	at  Time
	seq uint64
	arg any
}

// NewLine returns an empty delay line that runs fn for every entry.
func (e *Engine) NewLine(fn ArgEvent) *Line {
	return &Line{e: e, fn: fn}
}

// Schedule runs fn(at, arg) at absolute virtual time at. Like
// Engine.ScheduleArg it panics when at is in the past.
func (l *Line) Schedule(at Time, arg any) {
	e := l.e
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	switch {
	case l.q.Len() == 0:
		e.heads = append(e.heads, lineHead{at: at, seq: e.seq, line: l})
	case at < l.q.Back().at:
		e.push(scheduled{at: at, seq: e.seq, argFn: l.fn, arg: arg})
		return
	}
	l.q.PushBack(lineEntry{at: at, seq: e.seq, arg: arg})
}

// After runs fn(now, arg) after delay d. See Schedule.
func (l *Line) After(d Time, arg any) {
	if d < 0 {
		d = 0
	}
	l.Schedule(l.e.now+d, arg)
}
