package core

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

// solveOfflineExact is the exact sweep the incremental SolveOffline
// replaced, kept as its test oracle: every iteration re-scores every
// candidate against the full unconnected set and takes the first strict
// minimum of (ratio, prefix) in candidate order. The incremental engine
// must match it bit for bit at every worker count — same stations in
// the same order, same assignment, bit-identical costs
// (TestSolveOfflineIncrementalMatchesExact[Large]). It shares the
// engine's documented total order on cost ties (offlineScratch.Less) but
// none of its bounds, queue, kd-tree or selective prefix scan.
//
// Each candidate's clients are sorted once, in that (cost, index)
// order. An iteration filters the list to the unconnected clients,
// which is exactly the order a fresh sort of the unconnected set would
// give, so every prefix ratio is summed over the same costs in the same
// order as sorting each time. Candidates are scored through
// internal/parallel; each score reads only the iteration's shared state.
func solveOfflineExact(p *Problem) (*Solution, error) {
	n := len(p.Demands)
	if n == 0 {
		return nil, ErrEmptyProblem
	}
	workers := parallel.Default()
	order := parallel.Map(workers, n, func(_, i int) offlineScratch {
		return clientOrder(p, i)
	})

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

	for remaining > 0 {
		evals := parallel.Map(workers, n, func(_, i int) candEval {
			return evalCandidate(p, i, assign, curCost, openCost[i], remaining, &order[i])
		})
		// Strict < keeps the first (i, prefix) attaining the global
		// minimum.
		best, bestEval := -1, candEval{ratio: math.Inf(1)}
		for i, ev := range evals {
			if ev.ratio < bestEval.ratio {
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
		// Connect the chosen prefix of the winner's unconnected clients.
		o := &order[i]
		for t, connected := 0, 0; connected < bestEval.prefix; t++ {
			if j := o.idx[t]; assign[j] == unassigned {
				assign[j] = i
				curCost[j] = o.cost[t]
				connected++
				remaining--
			}
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

// clientOrder returns every client sorted by connection cost to
// candidate i, exact cost ties by client index — the documented total
// order every solver path shares.
func clientOrder(p *Problem, i int) offlineScratch {
	n := len(p.Demands)
	s := offlineScratch{idx: make([]int, n), cost: make([]float64, n)}
	for j := range s.idx {
		s.idx[j] = j
		s.cost[j] = p.Walk(i, j)
	}
	sort.Sort(&s)
	return s
}

// evalCandidate scores candidate i for the current iteration: switch
// savings over connected clients (ascending j, fixed summation order),
// then the minimum prefix ratio over the unconnected clients in o's
// cost order. remaining is the number of unconnected clients, so the
// scan stops at the last of them.
func evalCandidate(p *Problem, i int, assign []int, curCost []float64, openCost float64, remaining int, o *offlineScratch) candEval {
	var savings float64
	for j := range assign {
		if assign[j] == unassigned {
			continue
		}
		if c := p.Walk(i, j); c < curCost[j] {
			savings += curCost[j] - c
		}
	}
	base := openCost - savings
	best := candEval{ratio: math.Inf(1)}
	var acc float64
	k := 0
	for t, j := range o.idx {
		if assign[j] != unassigned {
			continue
		}
		acc += o.cost[t]
		k++
		if ratio := (base + acc) / float64(k); ratio < best.ratio {
			best = candEval{ratio: ratio, prefix: k}
		}
		if k == remaining {
			break
		}
	}
	return best
}
