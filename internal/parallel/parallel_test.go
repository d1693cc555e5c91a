package parallel_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// workerCounts are the parallelism levels every differential assertion
// in this repository runs at: sequential, even splits, and a prime that
// never divides the input sizes evenly.
var workerCounts = []int{1, 2, 4, 7}

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

func TestSetDefaultClampsAndRestores(t *testing.T) {
	orig := parallel.Default()
	defer parallel.SetDefault(orig)
	parallel.SetDefault(7)
	if got := parallel.Default(); got != 7 {
		t.Fatalf("parallel.Default()=%d after parallel.SetDefault(7)", got)
	}
	parallel.SetDefault(0) // resets to the GOMAXPROCS default
	if got, want := parallel.Default(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("parallel.Default()=%d after reset, want GOMAXPROCS=%d", got, want)
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
