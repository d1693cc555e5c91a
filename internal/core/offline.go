package core

import "repro/internal/parallel"

// SolveOffline runs the paper's Algorithm 1: the Jain–Mahdian–Markakis–
// Saberi–Vazirani greedy (JACM 2003), a 1.61-approximation for metric
// uncapacitated facility location, near the 1.46 inapproximability bound.
//
// Each iteration picks the candidate i and client set B minimising
//
//	( f_i + Σ_{j∈B} c_ij − Σ_{j∈B'_i} (c_{i'j} − c_ij) ) / |B|   (Eq. 5)
//
// where B ranges over prefixes of unconnected clients sorted by c_ij and
// B'_i is the set of already-connected clients that would save by
// switching to i. Opened facilities have their opening cost zeroed so
// later iterations may continue to attract switchers for free. The loop
// ends when every client is connected.
//
// SolveOffline runs the geometry-aware incremental engine (DESIGN.md
// §13): candidate selection goes through a lazy priority queue keyed by
// admissible lower bounds, and a candidate is only re-scored when a
// client inside its kd-tree neighbourhood connects. The result is
// bit-identical to the exact sweep that re-scores every candidate each
// iteration — same stations in the same order, same assignment,
// bit-identical costs — at a fraction of the work. That sweep is kept
// as a test oracle (offline_exact_test.go), and differential tests
// enforce the identity at every worker count.
func SolveOffline(p *Problem) (*Solution, error) {
	return SolveOfflineWorkers(p, parallel.Default())
}

// unassigned marks a demand not yet connected to any candidate.
const unassigned = -1

// candEval is one candidate's best Eq. 5 outcome within an iteration:
// the minimum prefix ratio and the prefix length attaining it first.
type candEval struct {
	ratio  float64
	prefix int
}

// offlineScratch is one worker's reusable buffer for the candidate
// sweep: the unconnected clients reordered by connection cost, with the
// costs cached so the sort comparator and the prefix accumulation never
// recompute a distance. It implements sort.Interface over the pair.
type offlineScratch struct {
	idx  []int
	cost []float64
}

func (s *offlineScratch) Len() int { return len(s.idx) }

// Less orders by cost with exact ties broken by ascending client index.
// The tie-break makes the permutation a total order determined by the
// data alone: which clients a tie-straddling prefix connects no longer
// depends on the sort algorithm's internal tie handling, so any correct
// sort — the stable radix sort on the hot path, or sort.Sort in its
// fallback and in the exact test oracle — produces the identical array.
func (s *offlineScratch) Less(a, b int) bool {
	if s.cost[a] < s.cost[b] {
		return true
	}
	if s.cost[b] < s.cost[a] {
		return false
	}
	return s.idx[a] < s.idx[b]
}

func (s *offlineScratch) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.cost[a], s.cost[b] = s.cost[b], s.cost[a]
}

// dropUnusedStations removes opened candidates that serve no demand after
// reassignment (possible when a late station absorbs all of an earlier
// one's clients).
func dropUnusedStations(p *Problem, sol *Solution) {
	used := map[int]bool{}
	for _, i := range sol.Assign {
		used[i] = true
	}
	kept := sol.Open[:0]
	for _, i := range sol.Open {
		if used[i] {
			kept = append(kept, i)
		}
	}
	sol.Open = kept
}
