package gen

import (
	"math"
	"math/rand"
	"testing"
)

// derivDraws is the number of draws compared per seed: more than twice the
// 607-entry feedback register, so every entry is built lazily, then
// rewritten, then read back after the register wraps.
const derivDraws = 1500

// TestDerivationSourceMatchesMathRand checks that derivSource is
// output-identical to rand.NewSource, which buildRand's callers rely on for
// byte-identical stimuli: over edge-case and random seeds, for Int63 and
// Uint64 draws, through the rand.Rand methods derivations use, and across a
// reseed in the middle of a stream.
func TestDerivationSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		3*int32max + 1, int32max - 1, int32max + 1, 89482311, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1}
	pick := rand.New(rand.NewSource(20261017))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, pick.Int63()-pick.Int63())
	}

	var lazy derivSource // one source reseeded throughout, as buildRand does
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		lazy.Seed(seed)
		for i := 0; i < derivDraws; i++ {
			if i%2 == 0 {
				if got, want := lazy.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, got, want)
				}
			} else if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, got, want)
			}
		}
	}

	// Reseeding mid-stream restarts both sources at the new seed's state,
	// whatever the old stream had built or rewritten.
	lazy.Seed(7)
	ref := rand.NewSource(7).(rand.Source64)
	for _, n := range []int{1, 3, 606, 607, 608, 1214, 5} {
		for i := 0; i < n; i++ {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("before reseed: draw %d = %d, want %d", i, got, want)
			}
		}
		seed := int64(n) * 7919
		lazy.Seed(seed)
		ref.Seed(seed)
	}
	for i := 0; i < derivDraws; i++ {
		if got, want := lazy.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after reseeds: draw %d = %d, want %d", i, got, want)
		}
	}

	// The rand.Rand the generator wraps around it draws what rand.New over
	// math/rand's source draws, method for method.
	g := New(1)
	for _, seed := range seeds[:64] {
		got := g.buildRand(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			a, b := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			if x, y := got.Intn(50), want.Intn(50); x != y || a[0] != b[0] || a[5] != b[5] {
				t.Fatalf("seed %d: rand.Rand draws diverge at step %d", seed, i)
			}
			if x, y := got.Uint64(), want.Uint64(); x != y {
				t.Fatalf("seed %d: rand.Rand Uint64 diverges at step %d", seed, i)
			}
			if x, y := got.Float64(), want.Float64(); x != y {
				t.Fatalf("seed %d: rand.Rand Float64 diverges at step %d", seed, i)
			}
		}
	}
}

// TestDerivationSourceEpochWrap checks that the generation stamp wrapping
// around to zero cannot make entries built under an old seed look current.
func TestDerivationSourceEpochWrap(t *testing.T) {
	var lazy derivSource
	lazy.Seed(3)
	for i := 0; i < derivDraws; i++ {
		lazy.Uint64()
	}
	lazy.epoch = math.MaxUint32 // the next Seed wraps the generation counter
	lazy.Seed(5)
	ref := rand.NewSource(5).(rand.Source64)
	for i := 0; i < derivDraws; i++ {
		if got, want := lazy.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("after wrap: draw %d = %d, want %d", i, got, want)
		}
	}
}

// TestGeneratorRNGMatchesMathRand checks that the generator's own RNG, now
// backed by derivSource, draws what rand.New(rand.NewSource(seed)) draws,
// both from New and after a Reseed, well past the 607-entry register so
// every entry is built and then fed back.
func TestGeneratorRNGMatchesMathRand(t *testing.T) {
	g := New(42)
	for _, seed := range []int64{42, EpochShardSeed(7919, 3, 1), -1, 0} {
		if seed != 42 {
			g.Reseed(seed)
		}
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if x, y := g.rng.Int63(), want.Int63(); x != y {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, x, y)
			}
		}
	}
}
