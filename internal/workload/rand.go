package workload

// Deterministic per-stream randomness. Every stream of a workload spec
// owns a private splitmix64 generator whose seed is derived from the
// canonical cell key plus the stream index, so the generated request
// trace is a pure function of the cell — byte-identical at any
// -parallel width and across record/replay.
// math/rand is deliberately not used: shrimpvet's unseededrand rule
// bans the globally-seeded generator sim-side, and an explicit tiny
// generator keeps the draw sequence stable across Go releases.

// RNG is a splitmix64 pseudo-random generator. The zero value is a
// valid (seed-0) generator, but streams should always be seeded via
// StreamSeed so distinct streams never share a draw sequence.
type RNG struct {
	s uint64
}

// NewRNG returns a generator with the given seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). The modulo bias is far
// below anything the workload distributions can resolve.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// mix64 is the splitmix64 finalizer, used to turn structured inputs
// (key hash, stream index) into well-spread seeds.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// SeedFromKey hashes a canonical cell key (any deterministic byte
// encoding of the cell) into a base seed, FNV-1a 64.
func SeedFromKey(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// StreamSeed derives the seed of one stream from the base seed. Stream
// indices are small consecutive integers; the finalizer spreads them
// so neighboring streams are uncorrelated.
func StreamSeed(base uint64, stream int) uint64 {
	return mix64(base ^ (uint64(stream)+1)*0x9E3779B97F4A7C15)
}
