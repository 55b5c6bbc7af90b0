package sim

import (
	"fmt"
	"testing"
)

// The differential test drives the engine and the heap-only oracle
// (oracle_test.go) with the same operation stream and requires the same
// observable behaviour after every operation: the (id, time) sequence of
// callbacks, Now, EventsRun, Pending and every Timer.Pending. Line
// enqueues map to ScheduleArg on the oracle and timers to its eager
// remove-and-push timer, which is what the engine did before lines and
// lazy deadlines, so "identical" here is the ordering contract itself.

const (
	diffTimers = 4
	diffLines  = 3
)

// diffLineDelay is each line's nominal constant delay.
var diffLineDelay = [diffLines]Time{0, 7 * Microsecond, 40 * Microsecond}

// diffAPI is what the driver needs from either engine.
type diffAPI interface {
	Now() Time
	EventsRun() uint64
	Pending() int
	Step() bool
	RunUntil(Time)
	Schedule(at Time, fn Event)
	ScheduleArg(at Time, fn ArgEvent, arg any)
	After(d Time, fn Event)
	lineSchedule(line int, at Time, fn ArgEvent, arg any)
	timerReset(i int, d Time, fn Event)
	timerStop(i int) bool
	timerPending(i int) bool
}

type realAPI struct {
	*Engine
	lines  [diffLines]*Line
	timers [diffTimers]*Timer
}

func (r *realAPI) lineSchedule(i int, at Time, fn ArgEvent, arg any) {
	if r.lines[i] == nil {
		r.lines[i] = r.NewLine(fn)
	}
	r.lines[i].Schedule(at, arg)
}
func (r *realAPI) timerReset(i int, d Time, fn Event) { r.timers[i].Reset(d, fn) }
func (r *realAPI) timerStop(i int) bool               { return r.timers[i].Stop() }
func (r *realAPI) timerPending(i int) bool            { return r.timers[i].Pending() }

type oracleAPI struct {
	*oracleEngine
	timers [diffTimers]*oracleTimer
}

func (o *oracleAPI) lineSchedule(_ int, at Time, fn ArgEvent, arg any) { o.ScheduleArg(at, fn, arg) }
func (o *oracleAPI) timerReset(i int, d Time, fn Event)                { o.timers[i].Reset(d, fn) }
func (o *oracleAPI) timerStop(i int) bool                              { return o.timers[i].Stop() }
func (o *oracleAPI) timerPending(i int) bool                           { return o.timers[i].Pending() }

type firing struct {
	id int
	at Time
}

// diffWorld is one engine plus the log of what it ran. Every scheduled
// callback has an id; what a callback does when it fires (nothing, or
// re-arm something from inside the dispatch) is a function of its id
// alone, so two engines that dispatch the same ids make the same calls.
type diffWorld struct {
	api    diffAPI
	log    []firing
	nextID int
	argEv  ArgEvent
}

func newDiffWorld(api diffAPI) *diffWorld {
	w := &diffWorld{api: api}
	w.argEv = func(now Time, arg any) { w.fired(arg.(int), now) }
	return w
}

func (w *diffWorld) id() int { w.nextID++; return w.nextID }

func (w *diffWorld) event() Event {
	id := w.id()
	return func(now Time) { w.fired(id, now) }
}

func (w *diffWorld) fired(id int, now Time) {
	w.log = append(w.log, firing{id, now})
	switch id % 13 {
	case 0:
		w.api.After(Time(id%3)*Microsecond, w.event())
	case 1:
		w.api.timerReset(id%diffTimers, Time(id%50)*Microsecond, w.event())
	case 2:
		l := id % diffLines
		w.api.lineSchedule(l, now+diffLineDelay[l], w.argEv, w.id())
	case 3:
		w.api.timerStop(id % diffTimers)
	}
}

// apply runs one operation. a and b are its operands.
func (w *diffWorld) apply(op, a, b byte) {
	api := w.api
	now := api.Now()
	d := Time(a) * Microsecond
	switch op % 11 {
	case 0:
		api.Schedule(now+d, w.event())
	case 1:
		api.ScheduleArg(now+d, w.argEv, w.id())
	case 2:
		api.After(Time(a%4)*Microsecond, w.event()) // many equal instants
	case 3: // in-order line enqueue
		l := int(b) % diffLines
		api.lineSchedule(l, now+diffLineDelay[l], w.argEv, w.id())
	case 4: // arbitrary instant: sometimes earlier than the line's tail
		api.lineSchedule(int(b)%diffLines, now+d, w.argEv, w.id())
	case 5: // earlier, later or equal to the pending deadline
		api.timerReset(int(b)%diffTimers, d, w.event())
	case 6:
		api.timerStop(int(b) % diffTimers)
	case 7:
		api.Step()
	case 8:
		for i := 0; i < 1+int(a%16); i++ {
			api.Step()
		}
	case 9: // leaves entries beyond the deadline
		api.RunUntil(now + d)
	case 10: // stop then re-arm at the same deadline, as armRTO does
		api.timerStop(int(b) % diffTimers)
		api.timerReset(int(b)%diffTimers, d, w.event())
	}
}

func diffCompare(real, oracle *diffWorld) error {
	if len(real.log) != len(oracle.log) {
		return fmt.Errorf("ran %d callbacks, oracle ran %d", len(real.log), len(oracle.log))
	}
	for i := range real.log {
		if real.log[i] != oracle.log[i] {
			return fmt.Errorf("callback %d is %+v, oracle has %+v", i, real.log[i], oracle.log[i])
		}
	}
	if r, o := real.api.Now(), oracle.api.Now(); r != o {
		return fmt.Errorf("Now() = %v, oracle %v", r, o)
	}
	if r, o := real.api.EventsRun(), oracle.api.EventsRun(); r != o {
		return fmt.Errorf("EventsRun() = %d, oracle %d", r, o)
	}
	if r, o := real.api.Pending(), oracle.api.Pending(); r != o {
		return fmt.Errorf("Pending() = %d, oracle %d", r, o)
	}
	for i := 0; i < diffTimers; i++ {
		if r, o := real.api.timerPending(i), oracle.api.timerPending(i); r != o {
			return fmt.Errorf("timer %d Pending() = %v, oracle %v", i, r, o)
		}
	}
	return nil
}

// runEngineDiff interprets ops three bytes at a time on both engines.
func runEngineDiff(t *testing.T, ops []byte) {
	t.Helper()
	ra := &realAPI{Engine: NewEngine()}
	oa := &oracleAPI{oracleEngine: newOracleEngine()}
	for i := 0; i < diffTimers; i++ {
		ra.timers[i] = ra.NewTimer()
		oa.timers[i] = oa.NewTimer()
	}
	real, oracle := newDiffWorld(ra), newDiffWorld(oa)
	for i := 0; i+2 < len(ops); i += 3 {
		real.apply(ops[i], ops[i+1], ops[i+2])
		oracle.apply(ops[i], ops[i+1], ops[i+2])
		if err := diffCompare(real, oracle); err != nil {
			t.Fatalf("after op %d (%d %d %d): %v", i/3, ops[i]%11, ops[i+1], ops[i+2], err)
		}
		// Truncate what has been compared so the check stays O(1) per op.
		real.log, oracle.log = real.log[:0], oracle.log[:0]
	}
	// Callbacks with id%13 == 0 re-arm forever; drain to a horizon.
	horizon := real.api.Now() + 10*Millisecond
	real.api.RunUntil(horizon)
	oracle.api.RunUntil(horizon)
	if err := diffCompare(real, oracle); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestEngineOrderMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := NewRNG(seed)
		ops := make([]byte, 3*600)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runEngineDiff(t, ops)
	}
}

// FuzzEngineOrder lets the fuzzer look for an operation stream on which
// lines or lazy timers dispatch differently from the plain heap.
// scripts/ci.sh runs it as a smoke gate.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 0, 1, 4, 2, 1, 7, 0, 0, 8, 15, 0})
	f.Add([]byte{5, 50, 0, 5, 10, 0, 5, 10, 0, 5, 90, 0, 6, 0, 0, 9, 60, 0, 10, 30, 0, 8, 9, 0})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 1, 0, 0, 9, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		runEngineDiff(t, ops)
	})
}
