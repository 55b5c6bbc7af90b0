package sim

// Ring is a double-ended queue on a circular buffer whose length is zero
// or a power of two. It grows by doubling when full and never shrinks, so
// a queue with a bounded population stops allocating once it has reached
// its high-water size. The zero Ring is ready to use. Like everything in
// a simulation it is single-threaded.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Front returns the oldest element; the ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Back returns the newest element; the ring must not be empty.
func (r *Ring[T]) Back() *T { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// PushBack appends v.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the oldest element, zeroing its slot so
// the buffer does not retain what it referenced.
func (r *Ring[T]) PopFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopBack removes the newest element.
func (r *Ring[T]) PopBack() {
	var zero T
	*r.Back() = zero
	r.n--
}

// Clear empties the ring, keeping its buffer.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
