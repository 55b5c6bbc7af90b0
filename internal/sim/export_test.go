package sim

// HeapLen exposes the number of entries physically in the event heap to
// the external tests in this directory (shallow_test.go).
func HeapLen(e *Engine) int { return len(e.events) }
