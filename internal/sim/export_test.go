package sim

// HeapLen exposes the number of entries physically in the event heap to
// the external tests in this directory (shallow_test.go).
func HeapLen(e *Engine) int { return len(e.events) }

// ActiveLines exposes the number of armed line heads the run loop scans:
// one per non-empty Line.
func ActiveLines(e *Engine) int { return len(e.heads) }

// The engine's test-side introspection: the events run and waiting, a
// drain-everything loop and a one-shot timer.

// EventsRun reports the number of events executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending reports the number of events waiting to run: the heap's
// entries, less those of stopped or fired timers awaiting their reap,
// plus every entry waiting in a line (heads and the entries behind them
// alike).
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.events {
		if s.timer == nil || s.timer.armed {
			n++
		}
	}
	for _, h := range e.heads {
		n += h.line.q.Len()
	}
	return n
}

// Run executes events until nothing is pending.
func (e *Engine) Run() {
	for {
		at, head, ok := e.next()
		if !ok {
			return
		}
		e.pollAbort()
		e.dispatch(at, head)
	}
}

// AfterTimer schedules fn after d and returns a cancellable handle.
func (e *Engine) AfterTimer(d Time, fn Event) *Timer {
	t := e.NewTimer()
	t.Reset(d, fn)
	return t
}
