package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xoshiro256**). Trials seed one RNG per experiment so
// that every source of randomness — noise episodes, jittered service start
// times, web resource trees — replays exactly given the same seed.
//
// math/rand would work too, but a self-contained generator keeps the
// stream stable across Go releases, which matters for a watchdog whose
// published artifacts must stay reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed initial state even for small consecutive seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Duration returns a uniform virtual duration in [0, d).
func (r *RNG) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(d))
}

// Exp returns an exponentially distributed duration with the given mean,
// used by the noise injector for memoryless episode arrivals.
func (r *RNG) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	// -ln(u) * mean, computed without importing math for a hot path:
	// we accept the tiny cost of math.Log; clarity wins.
	return Time(float64(mean) * negLog(u))
}

// Split derives an independent child generator; useful to give each flow
// its own stream so adding a flow does not perturb others' randomness.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
