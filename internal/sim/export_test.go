package sim

// HeapLen exposes the number of entries physically in the event heap to
// the external tests in this directory (shallow_test.go).
func HeapLen(e *Engine) int { return len(e.events) }

// ActiveLines exposes the number of armed line heads the run loop scans:
// one per non-empty Line.
func ActiveLines(e *Engine) int { return len(e.heads) }
