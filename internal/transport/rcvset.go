package transport

// rcvSet is the receiver's set of sequence numbers that arrived ahead of
// the next expected one, replacing a map[int64]bool on the per-packet
// path. Every member lies in the window [base, base+len(flags)), where
// base is the flow's rcvExpected: members are added only above base and
// taken as base advances onto them. A power-of-two array of flags indexed
// by seq&mask therefore holds the set collision-free; add doubles the
// array (rehashing the window) when a seq lands past it. n counts the
// members, so the in-order case tests one integer.
type rcvSet struct {
	flags []bool
	mask  int64
	n     int
}

const rcvSetInitial = 64

// add inserts seq, which must be above base. Adding a member again is a
// no-op.
func (r *rcvSet) add(base, seq int64) {
	if seq-base >= int64(len(r.flags)) {
		r.grow(base, seq)
	}
	if f := &r.flags[seq&r.mask]; !*f {
		*f = true
		r.n++
	}
}

// take removes base, the window's first seq, and reports whether it was
// a member.
func (r *rcvSet) take(base int64) bool {
	if r.n == 0 {
		return false
	}
	f := &r.flags[base&r.mask]
	if !*f {
		return false
	}
	*f = false
	r.n--
	return true
}

// grow doubles the array until seq falls inside the window that starts
// at base, and moves every member to its slot in the larger array.
func (r *rcvSet) grow(base, seq int64) {
	size := max(len(r.flags), rcvSetInitial)
	for seq-base >= int64(size) {
		size *= 2
	}
	old, oldMask := r.flags, r.mask
	r.flags = make([]bool, size)
	r.mask = int64(size - 1)
	if r.n == 0 {
		return
	}
	for s := base; s < base+int64(len(old)); s++ {
		if old[s&oldMask] {
			r.flags[s&r.mask] = true
		}
	}
}
