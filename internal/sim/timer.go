package sim

// Timer is a handle for a cancellable scheduled event. A Timer can be
// reused across arm/cancel cycles with Reset, which is how the transport
// hot path (RTO re-arm on every transmit and every ACK, pacing on every
// send) avoids allocating a handle per arm.
//
// The handle, not the heap, holds the deadline: (at, seq) is the stamp of
// the latest arm and fn its callback. The timer owns at most one physical
// heap entry (idx is its index, -1 when there is none), and Stop, firing
// and a Reset to a not-earlier instant leave that entry where it is. When
// it surfaces the engine reaps it (stopped, or fired and not re-armed),
// moves it to the handle's stamp (re-armed later) or fires it (stamps
// equal). A flow that pushes its RTO out on every ACK therefore touches
// the heap once per timeout interval instead of twice per packet, a pacer
// that re-arms itself from its own callback moves its entry once per
// firing instead of popping and pushing it, and the heap never holds more
// than one entry per timer.
type Timer struct {
	engine *Engine
	idx    int
	armed  bool
	at     Time
	seq    uint64
	fn     Event
}

// NewTimer returns an idle reusable timer. Arm it with Reset.
func (e *Engine) NewTimer() *Timer {
	return &Timer{engine: e, idx: -1}
}

// Reset arms the timer to run fn after d, replacing any pending arm. Each
// call consumes one seq, so the timer fires at the same place in the
// dispatch order as a freshly scheduled event would.
func (t *Timer) Reset(d Time, fn Event) {
	if d < 0 {
		d = 0
	}
	e := t.engine
	e.seq++
	t.at, t.seq, t.fn = e.now+d, e.seq, fn
	t.armed = true
	if t.idx < 0 {
		e.push(scheduled{at: t.at, seq: t.seq, timer: t})
		return
	}
	// The entry already in the heap surfaces no later than the new
	// deadline unless the deadline moved earlier; only then is it moved
	// now (its key shrank, so sifting up is enough).
	if s := &e.events[t.idx]; t.at < s.at {
		s.at, s.seq = t.at, t.seq
		e.siftUp(t.idx)
	}
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// timer was still pending. The heap entry stays until its instant, when
// the engine reaps it without running anything.
func (t *Timer) Stop() bool {
	if t == nil || !t.armed {
		return false
	}
	t.armed = false
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool { return t != nil && t.armed }
