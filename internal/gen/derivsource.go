package gen

// derivSource is a math/rand Source64 whose output is identical, seed for
// seed and draw for draw, to that of rand.NewSource — the additive lagged
// Fibonacci generator of math/rand/rng.go — but whose Seed is O(1).
//
// math/rand seeds its 607-entry feedback register by running the
// Park-Miller generator x ← 48271·x mod (2³¹−1) 1841 times from the
// normalised seed x₀, building entry i from steps 21+3i, 22+3i and 23+3i
// XOR rngCooked[i]. Step n is x₀·48271ⁿ mod (2³¹−1), so with the powers
// precomputed every entry can be built on its own. derivSource builds an
// entry the first time a draw touches it after a Seed; a per-entry
// generation stamp tells a built entry from one left over from an earlier
// seed. A stimulus derivation makes a handful of draws, so it builds a
// handful of entries instead of all 607.
type derivSource struct {
	tap, feed int
	x0        uint64 // normalised seed
	epoch     uint32 // generation of the current seed; never 0 once seeded
	stamp     [rngLen]uint32
	vec       [rngLen]int64
}

// The generator's constants, as in math/rand/rng.go.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedMul  = 48271
)

// seedPow[n] is 48271ⁿ mod (2³¹−1), for every step Seed reads.
var seedPow = func() *[3*rngLen + 21]uint64 {
	var p [3*rngLen + 21]uint64
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * seedMul % int32max
	}
	return &p
}()

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *derivSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.epoch++
	if s.epoch == 0 { // wrapped: clear the stamps so none can match
		s.stamp = [rngLen]uint32{}
		s.epoch = 1
	}
}

// entry returns feedback-register entry i, building it from the seed on
// its first use.
func (s *derivSource) entry(i int) *int64 {
	if s.stamp[i] != s.epoch {
		n := 21 + 3*i
		u := int64(s.x0*seedPow[n]%int32max) << 40
		u ^= int64(s.x0*seedPow[n+1]%int32max) << 20
		u ^= int64(s.x0 * seedPow[n+2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
		s.stamp[i] = s.epoch
	}
	return &s.vec[i]
}

// Uint64 returns the next 64-bit value.
func (s *derivSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	f := s.entry(s.feed)
	x := *f + *s.entry(s.tap)
	*f = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value.
func (s *derivSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
