package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/stats"
)

// Differential and property tests for the incremental offline engine
// (offline_lazy.go): SolveOfflineWorkers must be bit-identical to the
// exact sweep at every worker count, on random and adversarially tied
// instances, and its lazy-queue bounds must be admissible at every
// accepted winner.

// tiedGridProblem puts all demands on a coarse integer lattice with a
// single arrival weight and a single opening cost: almost every pair of
// candidates sees identical sorted cost multisets, so winner selection
// and prefix choice are decided entirely by the documented index
// tie-breaks.
func tiedGridProblem(n int) *Problem {
	side := 1
	for side*side < n {
		side++
	}
	demands := make([]Demand, n)
	for i := range demands {
		demands[i] = Demand{
			Loc:      geo.Pt(float64(i%side)*250, float64(i/side)*250),
			Arrivals: 2,
		}
	}
	opening := make([]float64, n)
	for i := range opening {
		opening[i] = 1800
	}
	p, err := NewProblem(demands, opening)
	if err != nil {
		panic(err)
	}
	return p
}

// colinearProblem places every demand on a line at equal spacing, with a
// small repeating arrival pattern: distances between index pairs at the
// same offset are exactly equal, kd-tree splits degenerate along one
// axis, and many prefix sums tie bit for bit.
func colinearProblem(n int) *Problem {
	demands := make([]Demand, n)
	for i := range demands {
		demands[i] = Demand{
			Loc:      geo.Pt(float64(i)*75, 120),
			Arrivals: float64(1 + i%3),
		}
	}
	opening := make([]float64, n)
	for i := range opening {
		opening[i] = 900 + float64(i%2)*600
	}
	p, err := NewProblem(demands, opening)
	if err != nil {
		panic(err)
	}
	return p
}

// duplicatePointsProblem collapses the demand set onto a handful of
// distinct locations, each hosting a pile of exact duplicates: zero
// distances, identical candidate columns and heavy tie-breaking through
// both the heap and the pair sort.
func duplicatePointsProblem(n int) *Problem {
	rng := stats.NewRNG(uint64(n) + 11)
	distinct := n/5 + 1
	sites := make([]geo.Point, distinct)
	for i := range sites {
		sites[i] = geo.Pt(rng.Float64()*2500, rng.Float64()*2500)
	}
	demands := make([]Demand, n)
	for i := range demands {
		demands[i] = Demand{
			Loc:      sites[i%distinct],
			Arrivals: float64(1 + rng.IntN(4)),
		}
	}
	opening := make([]float64, n)
	for i := range opening {
		opening[i] = 1200 + float64(rng.IntN(3))*800
	}
	p, err := NewProblem(demands, opening)
	if err != nil {
		panic(err)
	}
	return p
}

// serverProblem builds the instance esharing-server plans at start-up
// with its default flags: the 7-day synthetic history at seed 1,
// aggregated into 100 m cells, every station costing 10000. With
// shards > 1 it is shard's part of the history split the way the
// server splits it at -shard-precision 7: by geo.ShardOf, in history
// order.
func serverProblem(shard, shards int) *Problem {
	trips, err := dataset.Generate(dataset.Config{Days: 7, Seed: 1})
	if err != nil {
		panic(err)
	}
	var dests []geo.Point
	for _, pt := range dataset.EndPoints(trips) {
		if geo.ShardOf(pt, 7, shards) == shard {
			dests = append(dests, pt)
		}
	}
	p, err := HistoryProblem(geo.FoldPoints(dests), 100, 10000)
	if err != nil {
		panic(err)
	}
	return p
}

// diffCase is one named instance for the incremental-vs-exact matrix.
type diffCase struct {
	name string
	p    *Problem
}

func differentialCases() []diffCase {
	cases := []diffCase{
		{"ties/grid-49", tiedGridProblem(49)},
		{"ties/grid-130", tiedGridProblem(130)},
		{"colinear-90", colinearProblem(90)},
		{"duplicates-120", duplicatePointsProblem(120)},
		{"server/history=7d", serverProblem(0, 1)},
		{"server/history=7d/shard=0of2", serverProblem(0, 2)},
		{"server/history=7d/shard=1of2", serverProblem(1, 2)},
	}
	for _, n := range []int{1, 2, 17, 60, 140, 400} {
		cases = append(cases, diffCase{
			fmt.Sprintf("random-%d", n),
			randomOfflineProblem(uint64(2000+n), n),
		})
	}
	return cases
}

// TestSolveOfflineIncrementalMatchesExact pins the tentpole identity:
// the incremental engine reproduces the exact sweep bit for bit — same
// stations in the same order, same assignment, bit-identical evaluated
// cost — at parallelism 1, 2, 4 and 7, across random and adversarial
// (tied, colinear, duplicate-point) instances and the server's own
// start-up instance, whole and split into two shards.
func TestSolveOfflineIncrementalMatchesExact(t *testing.T) {
	for _, tc := range differentialCases() {
		want, err := solveOfflineExact(tc.p)
		if err != nil {
			t.Fatalf("%s: exact: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := SolveOfflineWorkers(tc.p, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: incremental: %v", tc.name, workers, err)
			}
			sameSolution(t, fmt.Sprintf("%s workers=%d", tc.name, workers), tc.p, got, want)
		}
	}
}

// TestSolveOfflineIncrementalMatchesExactLarge runs the same identity at
// N=2000 — large enough that the lazy queue, curve bounds, the
// partition path of the selective prefix scan and the seed bounds are
// all fully exercised. The exact oracle is quadratic per iteration, so
// the test is skipped under -short; CI runs it in its own step without
// the race detector.
func TestSolveOfflineIncrementalMatchesExactLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("exact oracle at N=2000 is expensive; skipped under -short")
	}
	p := randomOfflineProblem(9001, 2000)
	want, err := solveOfflineExact(p)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	for _, workers := range []int{1, 4} {
		got, err := SolveOfflineWorkers(p, workers)
		if err != nil {
			t.Fatalf("workers=%d: incremental: %v", workers, err)
		}
		sameSolution(t, fmt.Sprintf("n=2000 workers=%d", workers), p, got, want)
	}
}

// auditAccept checks, at one accepted winner, the two facts the lazy
// engine's correctness argument rests on, against freshly computed exact
// ratios for every candidate:
//
//  1. Admissibility — no stored key exceeds its candidate's true current
//     ratio, i.e. a pop can never select past a candidate whose bound
//     should have kept it ahead in the queue.
//  2. Winner optimality — the accepted winner is the lexicographic
//     minimum of (ratio, candidate index), the exact sweep's
//     first-strict-minimum tie-break.
//
// Returning an error (rather than t.Fatal) keeps it usable from
// quick.Check properties.
func auditAccept(s *lazySolver, winner int32) error {
	p := s.p
	n := len(p.Demands)
	eval := func(i int) candEval {
		o := clientOrder(p, i)
		return evalCandidate(p, i, s.assign, s.curCost, s.openCost[i], len(s.unconn), &o)
	}
	wEval := eval(int(winner))
	for i := 0; i < n; i++ {
		ev := eval(i)
		if ev.ratio < s.key[i] {
			return fmt.Errorf("candidate %d: stored key %v exceeds true ratio %v", i, s.key[i], ev.ratio)
		}
		if ev.ratio < wEval.ratio {
			return fmt.Errorf("winner %d (ratio %v) beaten by candidate %d (ratio %v)",
				winner, wEval.ratio, i, ev.ratio)
		}
		if i < int(winner) && !(wEval.ratio < ev.ratio) {
			return fmt.Errorf("winner %d ties candidate %d (ratio %v) but has the higher index",
				winner, i, ev.ratio)
		}
	}
	return nil
}

// TestQuickLazyBoundsAdmissible drives solveOfflineLazy over random
// instances with the accept hook auditing every single accepted winner:
// across the whole run, no lazy-queue bound ever excludes a candidate it
// should not, and every pop sequence ends at the exact sweep's winner.
func TestQuickLazyBoundsAdmissible(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	property := func(seed uint64, rawN uint16, rawW uint8) bool {
		n := 12 + int(rawN%70)
		workers := 1 + int(rawW%4)
		p := randomOfflineProblem(seed, n)
		var auditErr error
		hook := func(s *lazySolver, iter, winner int32) {
			if auditErr != nil {
				return
			}
			if err := auditAccept(s, winner); err != nil {
				auditErr = fmt.Errorf("seed=%d n=%d workers=%d iter=%d: %w",
					seed, n, workers, iter, err)
			}
		}
		if _, err := solveOfflineLazy(p, workers, hook); err != nil {
			t.Logf("solve failed: %v", err)
			return false
		}
		if auditErr != nil {
			t.Log(auditErr)
			return false
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLazyBoundsAdmissibleAdversarial repeats the full accept audit on
// the deterministic adversarial instances, where exact ties make the
// lexicographic winner argument do real work.
func TestLazyBoundsAdmissibleAdversarial(t *testing.T) {
	for _, tc := range []diffCase{
		{"ties/grid-64", tiedGridProblem(64)},
		{"colinear-60", colinearProblem(60)},
		{"duplicates-75", duplicatePointsProblem(75)},
	} {
		var auditErr error
		hook := func(s *lazySolver, iter, winner int32) {
			if auditErr != nil {
				return
			}
			if err := auditAccept(s, winner); err != nil {
				auditErr = fmt.Errorf("%s iter=%d: %w", tc.name, iter, err)
			}
		}
		if _, err := solveOfflineLazy(tc.p, 3, hook); err != nil {
			t.Fatalf("%s: solve: %v", tc.name, err)
		}
		if auditErr != nil {
			t.Fatal(auditErr)
		}
	}
}
