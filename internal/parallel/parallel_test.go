// External test package: stats imports parallel (the KS statistic fans
// out through it), so an in-package test importing stats would cycle.
package parallel_test

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// workerCounts are the parallelism levels every differential assertion
// in this repository runs at: sequential, even splits, and a prime that
// never divides the input sizes evenly.
var workerCounts = []int{1, 2, 4, 7}

// seqMinIndex is the reference semantics MinIndex must reproduce bit for
// bit: first strict minimum, NaN never wins.
func seqMinIndex(keys []float64) (int, float64) {
	best, bestVal := -1, math.Inf(1)
	for i, v := range keys {
		if v < bestVal {
			best, bestVal = i, v
		}
	}
	return best, bestVal
}

func TestMinIndexMatchesSequentialScan(t *testing.T) {
	// quick.Check-style property: on random inputs laced with NaNs, +Inf
	// and deliberate ties, MinIndex at every worker count returns exactly
	// the sequential scan's (index, value).
	cfg := &quick.Config{MaxCount: 300}
	seedCounter := uint64(0)
	property := func(n uint8, rawSeed uint64) bool {
		seedCounter++
		rng := stats.NewWorkerRNG(rawSeed, stats.StreamDefault, seedCounter)
		keys := make([]float64, int(n))
		for i := range keys {
			switch rng.IntN(6) {
			case 0:
				keys[i] = math.NaN()
			case 1:
				keys[i] = math.Inf(1)
			case 2:
				keys[i] = 0 // mass ties at zero
			case 3:
				keys[i] = float64(rng.IntN(4)) // small tied integers
			default:
				keys[i] = rng.Float64()*200 - 100
			}
		}
		wantIdx, wantVal := seqMinIndex(keys)
		for _, workers := range workerCounts {
			gotIdx, gotVal := parallel.MinIndex(workers, len(keys), func(i int) float64 { return keys[i] })
			if gotIdx != wantIdx {
				t.Logf("workers=%d: index %d, want %d (keys=%v)", workers, gotIdx, wantIdx, keys)
				return false
			}
			if gotVal != wantVal && !(math.IsNaN(gotVal) && math.IsNaN(wantVal)) {
				t.Logf("workers=%d: value %v, want %v", workers, gotVal, wantVal)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinIndexEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		keys    []float64
		wantIdx int
	}{
		{"empty", nil, -1},
		{"all NaN", []float64{math.NaN(), math.NaN(), math.NaN()}, -1},
		{"all +Inf", []float64{math.Inf(1), math.Inf(1)}, -1},
		{"tie keeps lowest index", []float64{3, 1, 1, 1, 2}, 1},
		{"NaN before min", []float64{math.NaN(), 5, 2}, 2},
		{"-Inf wins", []float64{1, math.Inf(-1), math.Inf(-1)}, 1},
		{"single", []float64{4}, 0},
	}
	for _, tc := range tests {
		for _, workers := range append(workerCounts, 16) {
			gotIdx, _ := parallel.MinIndex(workers, len(tc.keys), func(i int) float64 { return tc.keys[i] })
			if gotIdx != tc.wantIdx {
				t.Errorf("%s workers=%d: index %d, want %d", tc.name, workers, gotIdx, tc.wantIdx)
			}
		}
	}
}

func TestForChunksCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 101} {
			visited := make([]int32, n)
			parallel.ForChunks(workers, n, func(w, lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visited[i], 1)
				}
			})
			for i, c := range visited {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForWorkerIdentityIsChunkStable(t *testing.T) {
	// The worker id passed to the body must be a function of the index
	// alone (given workers and n) so per-worker scratch state maps to a
	// deterministic slice of the work.
	const workers, n = 4, 103
	owner := make([]int32, n)
	parallel.For(workers, n, func(w, i int) {
		atomic.StoreInt32(&owner[i], int32(w))
	})
	for i := 0; i < n; i++ {
		// Chunk bounds are part of the public contract: worker w owns
		// [w*n/workers, (w+1)*n/workers).
		w := int(owner[i])
		lo, hi := w*n/workers, (w+1)*n/workers
		if i < lo || i >= hi {
			t.Fatalf("index %d owned by worker %d with chunk [%d,%d)", i, owner[i], lo, hi)
		}
	}
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("owners not monotone: owner[%d]=%d < owner[%d]=%d", i, owner[i], i-1, owner[i-1])
		}
	}
}

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range workerCounts {
		got := parallel.Map(workers, 57, func(w, i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d", workers, i, v)
			}
		}
	}
	if out := parallel.Map(4, 0, func(w, i int) int { return i }); out != nil {
		t.Errorf("n=0 should map to nil, got %v", out)
	}
}

func TestMapReduceFoldsInIndexOrder(t *testing.T) {
	// A non-commutative reduction (string concatenation) exposes any
	// fold-order drift immediately.
	want := ""
	for i := 0; i < 26; i++ {
		want += string(rune('a' + i))
	}
	for _, workers := range workerCounts {
		got := parallel.MapReduce(workers, 26,
			func(w, i int) string { return string(rune('a' + i)) },
			func(acc, v string) string { return acc + v },
			"")
		if got != want {
			t.Fatalf("workers=%d: %q, want %q", workers, got, want)
		}
	}
}

func TestMapReduceFloatSumBitIdentical(t *testing.T) {
	// Floating-point summation is order-sensitive; the index-order fold
	// must make the sum bit-identical across worker counts.
	rng := stats.NewRNG(99)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(12)))
	}
	ref := parallel.MapReduce(1, len(vals),
		func(w, i int) float64 { return vals[i] },
		func(acc, v float64) float64 { return acc + v }, 0.0)
	for _, workers := range workerCounts[1:] {
		got := parallel.MapReduce(workers, len(vals),
			func(w, i int) float64 { return vals[i] },
			func(acc, v float64) float64 { return acc + v }, 0.0)
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d: sum %x, want %x", workers, math.Float64bits(got), math.Float64bits(ref))
		}
	}
}

func TestSetDefaultClampsAndRestores(t *testing.T) {
	orig := parallel.Default()
	defer parallel.SetDefault(orig)
	parallel.SetDefault(7)
	if got := parallel.Default(); got != 7 {
		t.Fatalf("parallel.Default()=%d after parallel.SetDefault(7)", got)
	}
	parallel.SetDefault(0) // resets to the environment/GOMAXPROCS default
	if got := parallel.Default(); got < 1 {
		t.Fatalf("parallel.Default()=%d after reset, want >= 1", got)
	}
}

func TestWorkerRNGStreamsIndependentOfChunking(t *testing.T) {
	// The approved pattern for randomness inside a parallel body: derive
	// the stream from the task index, never from the worker id. The
	// draws must then be independent of the worker count.
	draw := func(workers int) []float64 {
		return parallel.Map(workers, 40, func(w, i int) float64 {
			rng := stats.NewWorkerRNG(123, stats.StreamDefault, uint64(i))
			return rng.Float64()
		})
	}
	ref := draw(1)
	for _, workers := range workerCounts[1:] {
		got := draw(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: draw %d differs", workers, i)
			}
		}
	}
}
