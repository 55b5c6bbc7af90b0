// Package sim provides a deterministic discrete-event simulation engine.
//
// Every Prudentia substrate — the netem bottleneck, transport flows, and
// service control loops — runs on a single sim.Engine so that an entire
// experiment (two services competing over a dumbbell for ten virtual
// minutes) is a pure function of its configuration and RNG seed. This is
// what makes trials repeatable and the statistical machinery in
// internal/stats meaningful.
package sim

import (
	"fmt"
)

// Time is a virtual timestamp measured in nanoseconds since the start of
// the simulation. It deliberately mirrors time.Duration semantics so that
// durations and timestamps compose with ordinary arithmetic.
type Time int64

// Common virtual-time unit anchors.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the timestamp as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }
