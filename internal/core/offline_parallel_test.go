package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// solveOfflineReference is a verbatim copy of the sequential seed
// implementation of SolveOffline (pre-parallelisation). It is the oracle
// the parallel solver must match bit for bit: differential tests compare
// stations, assignments and evaluated costs against it at every worker
// count. Do not "fix" or modernise this copy — its value is that it is
// the original algorithm, allocations and all.
func solveOfflineReference(p *Problem) (*Solution, error) {
	n := len(p.Demands)
	if n == 0 {
		return nil, ErrEmptyProblem
	}

	const unassigned = -1
	assign := make([]int, n)
	curCost := make([]float64, n)
	for j := range assign {
		assign[j] = unassigned
		curCost[j] = math.Inf(1)
	}
	opened := make([]bool, n)
	openCost := append([]float64(nil), p.Opening...)
	var openOrder []int
	remaining := n

	type bestChoice struct {
		cand   int
		prefix int // number of unconnected clients to connect
		ratio  float64
		sorted []int // unconnected clients sorted by walk cost
	}

	for remaining > 0 {
		best := bestChoice{cand: -1, ratio: math.Inf(1)}
		for i := 0; i < n; i++ {
			// Savings from already-connected clients that prefer i.
			var savings float64
			for j := 0; j < n; j++ {
				if assign[j] == unassigned {
					continue
				}
				if c := p.Walk(i, j); c < curCost[j] {
					savings += curCost[j] - c
				}
			}
			// Unconnected clients sorted by connection cost to i.
			unconn := make([]int, 0, remaining)
			for j := 0; j < n; j++ {
				if assign[j] == unassigned {
					unconn = append(unconn, j)
				}
			}
			sort.Slice(unconn, func(a, b int) bool {
				return p.Walk(i, unconn[a]) < p.Walk(i, unconn[b])
			})
			base := openCost[i] - savings
			var acc float64
			for k, j := range unconn {
				acc += p.Walk(i, j)
				ratio := (base + acc) / float64(k+1)
				if ratio < best.ratio {
					best = bestChoice{cand: i, prefix: k + 1, ratio: ratio, sorted: unconn}
				}
			}
		}
		if best.cand == -1 {
			return nil, ErrEmptyProblem
		}
		i := best.cand
		if !opened[i] {
			opened[i] = true
			openOrder = append(openOrder, i)
		}
		openCost[i] = 0
		for _, j := range best.sorted[:best.prefix] {
			assign[j] = i
			curCost[j] = p.Walk(i, j)
			remaining--
		}
		for j := 0; j < n; j++ {
			if assign[j] == unassigned || assign[j] == i {
				continue
			}
			if c := p.Walk(i, j); c < curCost[j] {
				assign[j] = i
				curCost[j] = c
			}
		}
	}

	sol := &Solution{Open: openOrder, Assign: assign}
	if err := p.ReassignNearest(sol); err != nil {
		return nil, err
	}
	dropUnusedStations(p, sol)
	return sol, nil
}

// randomOfflineProblem builds a reproducible instance with clustered and
// scattered demand, varied arrival weights and heterogeneous opening
// costs — deliberately messy so cost ties and near-ties occur.
func randomOfflineProblem(seed uint64, n int) *Problem {
	rng := stats.NewRNG(seed)
	demands := make([]Demand, n)
	for i := range demands {
		var pt geo.Point
		if rng.IntN(3) == 0 {
			// Clustered: tight groups produce heavily tied distances.
			cx := float64(rng.IntN(4)) * 800
			cy := float64(rng.IntN(4)) * 800
			pt = geo.Pt(cx+rng.Float64()*50, cy+rng.Float64()*50)
		} else {
			pt = geo.Pt(rng.Float64()*3000, rng.Float64()*3000)
		}
		demands[i] = Demand{Loc: pt, Arrivals: 1 + float64(rng.IntN(5))}
	}
	opening := make([]float64, n)
	for i := range opening {
		opening[i] = 1000 + rng.Float64()*4000
	}
	p, err := NewProblem(demands, opening)
	if err != nil {
		panic(err)
	}
	return p
}

func sameSolution(t *testing.T, label string, p *Problem, got, want *Solution) {
	t.Helper()
	if len(got.Open) != len(want.Open) {
		t.Fatalf("%s: opened %d stations, want %d", label, len(got.Open), len(want.Open))
	}
	for k := range want.Open {
		if got.Open[k] != want.Open[k] {
			t.Fatalf("%s: Open[%d]=%d, want %d", label, k, got.Open[k], want.Open[k])
		}
	}
	for j := range want.Assign {
		if got.Assign[j] != want.Assign[j] {
			t.Fatalf("%s: Assign[%d]=%d, want %d", label, j, got.Assign[j], want.Assign[j])
		}
	}
	gc, err := p.Evaluate(got)
	if err != nil {
		t.Fatalf("%s: evaluate got: %v", label, err)
	}
	wc, err := p.Evaluate(want)
	if err != nil {
		t.Fatalf("%s: evaluate want: %v", label, err)
	}
	if math.Float64bits(gc.Walking) != math.Float64bits(wc.Walking) ||
		math.Float64bits(gc.Opening) != math.Float64bits(wc.Opening) {
		t.Fatalf("%s: cost %v not bit-identical to %v", label, gc, wc)
	}
}

func TestSolveOfflineWorkersMatchesReference(t *testing.T) {
	// The tentpole differential: at every worker count, including the
	// prime that never divides n, the parallel solver reproduces the seed
	// implementation exactly — same stations in the same order, same
	// assignment, bit-identical costs.
	for _, n := range []int{1, 2, 17, 60, 140} {
		p := randomOfflineProblem(uint64(1000+n), n)
		want, err := solveOfflineReference(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := SolveOfflineWorkers(p, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			sameSolution(t, fmt.Sprintf("n=%d workers=%d", n, workers), p, got, want)
		}
	}
}

func TestSolveOfflineDefaultMatchesReference(t *testing.T) {
	// SolveOffline (the parallel.Default() path, whatever the ambient
	// GOMAXPROCS) must agree with the seed too.
	p := randomOfflineProblem(7, 90)
	want, err := solveOfflineReference(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveOffline(p)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "default", p, got, want)
}

func TestSolveOfflineAllocBudget(t *testing.T) {
	// The reworked solver reuses per-worker scratch across iterations, so
	// its allocation count is O(n + iterations), not O(n²). The seed
	// implementation allocates ~23k times on this instance; the budget
	// below (with generous slack) catches any return to per-candidate
	// allocation.
	p := randomOfflineProblem(42, 150)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveOfflineWorkers(p, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 600 {
		t.Errorf("SolveOfflineWorkers(n=150, workers=1) allocates %.0f times per run, want <= 600", allocs)
	}
}

// BenchmarkSolveOfflineReference times the seed implementation on the
// same instances as BenchmarkSolveOffline, so before/after speedups in
// EXPERIMENTS.md compare identical work.
func BenchmarkSolveOfflineReference(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		p := randomOfflineProblem(uint64(n), n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveOfflineReference(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveOffline(b *testing.B) {
	for _, n := range []int{200, 500, 1000} {
		p := randomOfflineProblem(uint64(n), n)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("N=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SolveOfflineWorkers(p, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
