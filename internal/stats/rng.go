// Package stats provides the statistical machinery behind E-Sharing:
// seeded random sources, the 2-D point distributions used by the penalty
// evaluation (Fig. 9, Table III), and Peacock's two-dimensional
// Kolmogorov–Smirnov test (Section III-D) with its cached history side.
// The prediction engine's RMSE (Eq. 14) is forecast.WalkForwardRMSE.
package stats

import (
	"math"
	"math/rand/v2"
)

// Stream identifiers for NewRNGStream. Every component that owns a
// random stream draws from its own stream, so two components seeded
// with the same user-facing seed (a common configuration: one
// experiment seed drives the generator, the placer and the simulator)
// never consume correlated randomness. The identifiers are part of the
// reproducibility contract: renumbering them changes every downstream
// figure, so append only. A retired stream keeps its slot as a blank
// identifier so the ones after it keep their values.
const (
	StreamDefault uint64 = iota
	StreamMeyerson
	StreamOnlineKMeans
	StreamESharing
	StreamCharging
	_ // retired: location obfuscation
	StreamDataset
	StreamLSTMInit
	StreamLSTMShuffle
	_ // retired: HTTP client retry jitter
)

// streamSpread is an odd multiplier (SplitMix64's increment) that
// spreads consecutive stream identifiers across the PCG state space.
const streamSpread = 0xbf58476d1ce4e5b9

// NewRNG returns a deterministic PCG-backed source for the given seed —
// stream 0 of NewRNGStream. Every experiment in the repository routes
// randomness through explicit seeds so that tables and figures
// regenerate bit-identically.
func NewRNG(seed uint64) *rand.Rand {
	return NewRNGStream(seed, StreamDefault)
}

// NewRNGStream returns the stream-th deterministic substream for seed.
// Substreams of one seed are mutually independent PCG instances; use a
// Stream* identifier (or any fixed small integer) to give each
// component its own stream instead of hand-rolling xor constants at the
// call site.
func NewRNGStream(seed, stream uint64) *rand.Rand {
	return rand.New(newPCGStream(seed, stream))
}

// newPCGStream constructs the PCG source behind NewRNGStream; the seed
// derivation here is part of the reproducibility contract (changing it
// changes every downstream figure).
func newPCGStream(seed, stream uint64) *rand.PCG {
	return rand.NewPCG(seed, (seed^0x9e3779b97f4a7c15)+stream*streamSpread)
}

// SnapshotRNG couples a *rand.Rand with its PCG source so the
// generator's exact position in its stream can be marshaled into a
// durable snapshot and restored bit-identically. The embedded Rand
// draws from the same source, so a SnapshotRNG built from
// NewSnapshotRNGStream(seed, stream) emits the identical sequence to
// NewRNGStream(seed, stream).
type SnapshotRNG struct {
	*rand.Rand
	src *rand.PCG
}

// NewSnapshotRNGStream is NewRNGStream with state snapshot support.
func NewSnapshotRNGStream(seed, stream uint64) *SnapshotRNG {
	src := newPCGStream(seed, stream)
	return &SnapshotRNG{Rand: rand.New(src), src: src}
}

// MarshalState serializes the generator's current position.
func (r *SnapshotRNG) MarshalState() ([]byte, error) {
	return r.src.MarshalBinary()
}

// UnmarshalState restores a position captured by MarshalState; draws
// after the restore are bit-identical to draws after the capture.
func (r *SnapshotRNG) UnmarshalState(data []byte) error {
	return r.src.UnmarshalBinary(data)
}

// taskBase offsets per-task substreams far above the Stream* constants
// so NewWorkerRNG(seed, s, task) never collides with NewRNGStream(seed,
// s') for any component stream s'.
const taskBase = uint64(1) << 32

// NewWorkerRNG returns the task-th substream of a component stream —
// the RNG constructor for callbacks running under internal/parallel.
// A parallel map must not share one sequentially-consumed generator
// across tasks (the interleaving would depend on scheduling); instead
// each task derives its own stream from its deterministic identity, the
// task index, so the draws are bit-identical at any worker count:
//
//	parallel.Map(workers, n, func(w, i int) T {
//		rng := stats.NewWorkerRNG(seed, stats.StreamX, uint64(i))
//		...
//	})
//
// Never key the stream on the worker id w — the index→worker mapping
// changes with the worker count.
func NewWorkerRNG(seed, stream, task uint64) *rand.Rand {
	return NewRNGStream(seed, taskBase+stream*taskBase+task)
}

// Normal draws a sample from N(mean, stdDev²) using rng.
func Normal(rng *rand.Rand, mean, stdDev float64) float64 {
	return mean + stdDev*rng.NormFloat64()
}

// Poisson draws a sample from Poisson(lambda). For small lambda it uses
// Knuth's product method; for large lambda it switches to a normal
// approximation with continuity correction, which is ample for the demand
// volumes this repository simulates.
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Exponential draws a sample from Exp(rate), i.e. mean 1/rate.
func Exponential(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / rate
}

// WeightedIndex samples an index proportionally to weights. Negative
// weights are treated as zero. It returns -1 if all weights are zero or the
// slice is empty.
func WeightedIndex(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	// Floating point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
