package sim

// Pool is a single-threaded free list for the simulation hot path. It is
// deliberately not sync.Pool: a simulation is a sequential program, so a
// plain slice with no locks or per-P caches is both faster and — unlike
// sync.Pool — deterministic (Get returns the most recently Put object,
// every run).
//
// Put zeroes the object before parking it, so a Get always observes a
// fresh zero value and stale fields from a previous life cannot leak into
// the next one. The zero Pool is ready to use.
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed *T, reusing a previously Put object when one is
// parked.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put parks x for reuse. The caller must not retain x afterwards.
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}
