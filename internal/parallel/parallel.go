// Package parallel is the repository's deterministic fork–join engine.
//
// Every compute path in this codebase — the offline facility-location
// greedy, the forecasting grids and the experiment sweeps — must
// produce bit-identical output for a given seed regardless of how many
// cores it runs on. This package makes that tractable by construction:
//
//   - Work is split over index ranges into at most `workers` contiguous
//     chunks; each chunk is processed by one goroutine in ascending index
//     order, exactly like the sequential loop it replaces.
//   - Every task keeps its deterministic identity: its index. Callbacks
//     that need randomness seed their own generator from that identity
//     (the experiment sweeps use stats.NewRNG(cfg.Seed + f(index)))
//     instead of sharing a sequentially-consumed generator.
//   - Reductions fold per-chunk results in index order with stable
//     tie-breaks (strict comparisons, lowest index wins), so the fold is
//     equivalent to the sequential left-to-right scan.
//
// With those three rules, workers=1 and workers=N run the same
// floating-point operations in the same order per item and combine them
// identically, so output bits cannot depend on the worker count. The
// differential tests in this package and in core/forecast/experiments
// enforce that at parallelism 1, 2, 4 and 7.
//
// The process-wide default worker count is GOMAXPROCS; binaries expose
// it as a -parallelism flag via SetDefault.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default parallelism. It is only
// read through Default and written through SetDefault (both atomic), so
// flag wiring in main and concurrent compute paths never race.
var defaultWorkers atomic.Int64

func init() {
	defaultWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// Default returns the process-wide default worker count (≥ 1).
func Default() int {
	return int(defaultWorkers.Load())
}

// SetDefault sets the process-wide default worker count. Values below 1
// reset to GOMAXPROCS; SetDefault(1) forces every default-parallelism
// compute path to run sequentially.
func SetDefault(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int64(n))
}

// clamp bounds workers to [1, n] so no goroutine ever owns an empty
// chunk and a non-positive request degrades to sequential execution.
func clamp(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunk returns the half-open index range owned by worker w: contiguous,
// ascending, covering [0, n) exactly once across the w's.
func chunk(w, workers, n int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// ForChunks splits [0, n) into at most `workers` contiguous chunks and
// calls body(worker, lo, hi) once per non-empty chunk, concurrently.
// Chunk boundaries depend only on (workers, n), never on scheduling, and
// body must process its range in ascending order when item order matters.
// With workers ≤ 1 (or n ≤ 1) the body runs inline on the caller's
// goroutine — the zero-overhead sequential path.
func ForChunks(workers, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clamp(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	forkJoin(workers, n, body)
}

// forkJoin is ForChunks' multi-worker path, kept out of ForChunks
// itself: the WaitGroup is captured by the worker goroutines and
// therefore heap-allocated in its function's prologue, and callers that
// take the sequential fast path — like the incremental solver's
// per-pop re-scoring at workers == 1 — must not pay that allocation on
// every call.
func forkJoin(workers, n int, body func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo, hi := chunk(w, workers, n)
			if lo < hi {
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// For calls body(worker, i) for every i in [0, n), fanned out in
// contiguous chunks. Each worker visits its indices in ascending order.
func For(workers, n int, body func(worker, i int)) {
	ForChunks(workers, n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(w, i)
		}
	})
}

// Map evaluates f for every index in [0, n) across `workers` goroutines
// and returns the results in index order. Because each result lands in
// its own slot, the output is independent of scheduling by construction.
func Map[T any](workers, n int, f func(worker, i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(workers, n, func(w, i int) {
		out[i] = f(w, i)
	})
	return out
}
