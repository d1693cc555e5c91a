package core

import (
	"math"
	"sort"
)

// solveOfflineExact is the exact sweep the incremental SolveOffline
// replaced, kept as its test oracle: every iteration re-scores every
// candidate against the full unconnected set, in ascending candidate
// order, and takes the first strict minimum of (ratio, prefix). The
// incremental engine must match it bit for bit at every worker count —
// same stations in the same order, same assignment, bit-identical costs
// (TestSolveOfflineIncrementalMatchesExact[Large]). It shares the
// engine's documented total order on cost ties (offlineScratch.Less) but
// none of its bounds, queue or selective prefix scan: every evaluation
// sorts every unconnected client.
func solveOfflineExact(p *Problem) (*Solution, error) {
	n := len(p.Demands)
	if n == 0 {
		return nil, ErrEmptyProblem
	}

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

	unconn := make([]int, 0, n)
	s := &offlineScratch{idx: make([]int, 0, n), cost: make([]float64, 0, n)}

	for remaining > 0 {
		// The unconnected set is shared by every candidate this
		// iteration; build it once, ascending.
		unconn = unconn[:0]
		for j := 0; j < n; j++ {
			if assign[j] == unassigned {
				unconn = append(unconn, j)
			}
		}
		// Score every candidate in order; strict < keeps the first
		// (i, prefix) attaining the global minimum.
		best, bestEval := -1, candEval{ratio: math.Inf(1)}
		for i := 0; i < n; i++ {
			if ev := evalCandidate(p, i, assign, curCost, openCost[i], unconn, s); ev.ratio < bestEval.ratio {
				best, bestEval = i, ev
			}
		}
		if best == -1 {
			// Unreachable for valid instances: every candidate can always
			// connect at least one client.
			return nil, ErrEmptyProblem
		}
		i := best
		if !opened[i] {
			opened[i] = true
			openOrder = append(openOrder, i)
		}
		openCost[i] = 0
		// Re-derive the winner's sorted order and connect the chosen
		// prefix.
		sortUnconnByCost(p, i, unconn, s)
		for k := 0; k < bestEval.prefix; k++ {
			j := s.idx[k]
			assign[j] = i
			curCost[j] = s.cost[k]
			remaining--
		}
		// Switch connected clients that save.
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
	// Final clean-up: nearest reassignment can only help.
	if err := p.ReassignNearest(sol); err != nil {
		return nil, err
	}
	dropUnusedStations(p, sol)
	return sol, nil
}

// sortUnconnByCost loads the unconnected clients into s (ascending
// client index) and sorts them by connection cost to candidate i, exact
// cost ties by client index — the documented total order every solver
// path shares.
func sortUnconnByCost(p *Problem, i int, unconn []int, s *offlineScratch) {
	s.idx = s.idx[:0]
	s.cost = s.cost[:0]
	for _, j := range unconn {
		s.idx = append(s.idx, j)
		s.cost = append(s.cost, p.Walk(i, j))
	}
	sort.Sort(s)
}

// evalCandidate scores candidate i for the current iteration: switch
// savings over connected clients (ascending j, fixed summation order),
// then the minimum prefix ratio over unconnected clients sorted by
// cost.
func evalCandidate(p *Problem, i int, assign []int, curCost []float64, openCost float64, unconn []int, s *offlineScratch) candEval {
	n := len(p.Demands)
	var savings float64
	for j := 0; j < n; j++ {
		if assign[j] == unassigned {
			continue
		}
		if c := p.Walk(i, j); c < curCost[j] {
			savings += curCost[j] - c
		}
	}
	sortUnconnByCost(p, i, unconn, s)
	base := openCost - savings
	best := candEval{ratio: math.Inf(1)}
	var acc float64
	for k, c := range s.cost {
		acc += c
		ratio := (base + acc) / float64(k+1)
		if ratio < best.ratio {
			best = candEval{ratio: ratio, prefix: k + 1}
		}
	}
	return best
}
