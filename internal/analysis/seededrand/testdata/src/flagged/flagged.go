// Package flagged exercises seededrand: loaded under a deterministic
// production path, every package-level math/rand/v2 use must be
// reported; injected *rand.Rand streams and type references are fine.
package flagged

import "math/rand/v2"

// newHandRolled is the pattern the analyzer exists to kill: an ad-hoc
// PCG with a local magic constant instead of stats.NewRNG.
func newHandRolled(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xdeadbeef)) // want `rand\.New bypasses the seed discipline` `rand\.NewPCG bypasses the seed discipline`
}

// drawGlobal uses the process-global generator, which is seeded from
// runtime entropy and unreproducible.
func drawGlobal() float64 {
	return rand.Float64() // want `rand\.Float64 bypasses the seed discipline`
}

func rollGlobal(n int) int {
	return rand.IntN(n) // want `rand\.IntN bypasses the seed discipline`
}

// drawInjected is the approved shape: the caller owns the stream.
func drawInjected(rng *rand.Rand) float64 {
	return rng.Float64()
}

// shuffleWaived shows the escape hatch for a justified exception.
func shuffleWaived(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) //esharing:allow seededrand
}

// parallelMap stands in for the fork–join engine's Map (the testdata
// module cannot import repro/internal/parallel): what matters is the
// worker-callback shape below.
func parallelMap(n int, f func(worker, i int) float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = f(0, i)
	}
	return out
}

// drawPerTask is the parallel anti-pattern: hand-rolling a generator
// inside a worker callback instead of seeding stats.NewRNG from the task
// index (stats.NewRNG(seed + f(task)), as the experiment sweeps do).
// Even though the stream is keyed on the task index here, the raw
// constructor bypasses the seed discipline and must be flagged.
func drawPerTask(seed uint64, n int) []float64 {
	return parallelMap(n, func(w, i int) float64 {
		rng := rand.New(rand.NewPCG(seed, uint64(i))) // want `rand\.New bypasses the seed discipline` `rand\.NewPCG bypasses the seed discipline`
		return rng.Float64()
	})
}

// drawPerWorkerGlobal is the worse variant: the process-global generator
// consumed from concurrent callbacks is both unreproducible and
// schedule-dependent.
func drawPerWorkerGlobal(n int) []float64 {
	return parallelMap(n, func(w, i int) float64 {
		return rand.Float64() // want `rand\.Float64 bypasses the seed discipline`
	})
}
