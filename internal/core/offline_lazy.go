package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/parallel"
)

// This file is the geometry-aware incremental JMS engine behind
// SolveOffline (DESIGN.md §13). The exact sweep (offline_exact_test.go,
// now the test oracle) re-scores every candidate against every
// unconnected client on every iteration; at city scale that
// quadratic-per-iteration cost is hopeless. The incremental engine
// keeps the same winners — bit for bit — while doing a fraction of the
// scoring, by combining two ideas:
//
//  1. Neighbourhood invalidation. Between two evaluations of a fixed
//     candidate i, its Eq. 5 ratio can only DECREASE through two events:
//     its own opening cost being zeroed (i was picked), or a client j
//     connecting at cost curCost[j] with walk(i,j) < curCost[j] — i.e.
//     j lies strictly inside the circle around itself of radius
//     d(winner, j), which is a kd-tree range query over the candidate
//     sites. Everything else (clients leaving the unconnected set,
//     connected clients switching closer) can only INCREASE the ratio:
//     removing the element at sorted position p from the prefix
//     minimisation leaves prefixes k < p untouched and turns each later
//     prefix sum S_{k+1} into S_{k+1} - c_p >= S_k, so no prefix ratio
//     drops below the old minimum.
//
//  2. A lazy priority queue. Each candidate carries an admissible lower
//     bound on its current ratio, derived from the truncated ratio curve
//     of its last exact evaluation (or, before any evaluation, from the
//     kd-tree seed bounds) decremented per prefix length by the
//     slack-loosened base decrease — savings gains and zeroed opening
//     costs — accrued in its neighbourhood since (see boundKey).
//     Selection pops the queue; stale entries (not evaluated this
//     iteration) are re-scored exactly — in deterministic worker-fanned
//     batches — and pushed back; the first popped entry that was scored
//     this iteration is the winner.
//
// Why the winner is exact: keys never exceed true ratios, and the heap
// orders by (key, index). When an entry scored this iteration reaches
// the top, any candidate with a strictly better (ratio, index) pair
// would have an entry with key <= its ratio sitting below the top —
// contradiction. So the accepted winner is the lexicographic minimum of
// (ratio, index), exactly the exact sweep's first-strict-minimum
// tie-break, and that holds for ANY admissible keys — the solution is
// invariant to how many stale entries get re-scored, which is what
// makes it bit-identical at every worker count despite worker-dependent
// re-evaluation batches.

// lazyBoundSlack is the relative slack subtracted whenever a key is
// decremented. The invalidation inequality (new ratio >= old ratio −
// savings gain) is exact in real arithmetic; the slack keeps the
// float64-computed key below the float64-computed ratio despite
// rounding in either chain. 1e-9 dwarfs the ~1e-12 relative error that
// tens of thousands of accumulations can introduce, while costing at
// most a handful of spurious re-evaluations near exact ties.
const lazyBoundSlack = 1e-9

// lazyRadiusSlack inflates the squared invalidation radius. Membership
// "walk(i,j) < curCost[j]" is proven from the squared-distance
// comparison Dist2(i,j) < Dist2(winner,j); Dist is sqrt(Dist2) with a
// correctly rounded, monotone sqrt, so the two comparisons can disagree
// only at exact rounding ties. The query over-covers by a relative
// 1e-12 to keep those ties inside the hit set, and the per-hit gain
// test (strictly positive) makes the final call.
const lazyRadiusSlack = 1e-12

// lazyCurveK truncates the cached per-candidate ratio curve: an exact
// evaluation stores the prefix ratios r_1..r_{K-1} individually plus the
// minimum over every longer prefix. A base decrease of g (savings gained
// or the opening cost zeroed) lowers the prefix-k ratio by exactly g/k,
// so the curve supports the bound
//
//	new ratio >= min( min_{k<K}(r_k − g/k), rTail − g/K )
//
// instead of the scalar r_min − g, which assumes the k = 1 worst case.
// Early iterations — where the unconnected set is largest and re-scoring
// costs the most — win prefixes dozens of clients long, so the truncated
// curve keeps keys up to K times tighter exactly where it matters.
// 16 costs 15 floats per candidate and makes each key refresh an O(K)
// scan; past it the tail bound's K-fold tightening hits diminishing
// returns.
const lazyCurveK = 16

// lazyParallelEvalMin is the instance size below which stale-batch
// re-scoring stays inline: under it a single re-score is cheaper than
// the fork-join it would ride on.
const lazyParallelEvalMin = 2048

// lazyHeapEntry is one priority-queue entry: the candidate's admissible
// key at push time and the candidate generation it belongs to. Entries
// whose gen no longer matches the candidate's current generation are
// dead and discarded on pop — the standard lazy-deletion scheme, which
// avoids any float equality test on keys.
type lazyHeapEntry struct {
	key float64
	idx int32
	gen uint32
}

// connectEvent records one client connecting this iteration: the
// invalidation source for every candidate strictly closer to j than the
// winner is.
type connectEvent struct {
	j    int32   // newly connected client
	cost float64 // curCost[j] at connection time (weighted walk cost)
	r2   float64 // squared distance from j to the winner, slack-inflated
}

// lazyEventScratch is one worker's output for the invalidation fan-out:
// flattened (candidate, gain) hits for the worker's contiguous chunk of
// events, gains already filtered to strictly positive.
type lazyEventScratch struct {
	hits  []int32
	gains []float64
}

// lazySolver carries the incremental engine's state across iterations.
type lazySolver struct {
	p       *Problem
	workers int
	tree    *geo.KDTree

	// Connection state, identical in meaning and evolution to the
	// exact sweep's locals.
	assign    []int
	curCost   []float64
	opened    []bool
	openCost  []float64
	openOrder []int
	remaining int
	unconn    []int
	conn      []int // connected clients, ascending — unconn's complement

	// Per-candidate lazy state.
	key   []float64  // admissible lower bound on the current ratio
	gen   []uint32   // current generation; older heap entries are dead
	epoch []int32    // iteration of the last exact evaluation
	eval  []candEval // that evaluation's (ratio, prefix)

	// Truncated ratio curve from the last exact evaluation (lazyCurveK):
	// curveHead[i*(K-1) : (i+1)*(K-1)] holds r_1..r_{K-1}, curveTail[i]
	// the minimum ratio over prefixes >= K, and gainSince[i] the total
	// base decrease credited since — the inputs to boundKey.
	curveHead []float64
	curveTail []float64
	gainSince []float64

	heap    []lazyHeapEntry
	batch   []int32
	scratch []offlineScratch

	// Invalidation fan-out buffers.
	events   []connectEvent
	evOut    []lazyEventScratch
	seenIter []int32   // last iteration a candidate accrued event gains
	gainAcc  []float64 // per-iteration accumulated gains
	dirty    []int32   // candidates invalidated this iteration, first-hit order

	// batchBody and eventBody are the ForChunks callbacks for stale-
	// batch re-scoring and event fan-out, allocated once: the selection
	// loop calls them every pop round, and a fresh closure per call
	// would put the engine back on an alloc-per-iteration budget.
	batchBody func(w, lo, hi int)
	eventBody func(w, lo, hi int)

	// acceptHook, when non-nil, observes every accepted winner before it
	// is applied, with full read access to the solver state; tests use it
	// to audit bound admissibility and winner optimality.
	acceptHook func(s *lazySolver, iter, winner int32)
}

// SolveOfflineWorkers is SolveOffline with an explicit worker count: the
// incremental engine with initial scoring, stale-batch re-evaluation and
// neighbourhood invalidation fanned out across the workers.
//
// Determinism contract: the solution is bit-identical for every workers
// value and bit-identical to the exact sweep kept as the test oracle
// (offline_exact_test.go) — the accepted winner of every iteration is
// the lexicographic minimum of (ratio, candidate index) regardless of
// which stale entries a given worker count happens to re-score (see the
// file comment for the argument). Differential tests pin both identities at parallelism 1,
// 2, 4 and 7, on random and adversarially tied instances.
//
//esharing:deterministic
func SolveOfflineWorkers(p *Problem, workers int) (*Solution, error) {
	return solveOfflineLazy(p, workers, nil)
}

//esharing:deterministic
func solveOfflineLazy(p *Problem, workers int, acceptHook func(s *lazySolver, iter, winner int32)) (*Solution, error) {
	n := len(p.Demands)
	if n == 0 {
		return nil, ErrEmptyProblem
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	locs := make([]geo.Point, n)
	for i, d := range p.Demands {
		locs[i] = d.Loc
	}
	s := &lazySolver{
		p:          p,
		workers:    workers,
		tree:       geo.BuildKDTree(locs),
		assign:     make([]int, n),
		curCost:    make([]float64, n),
		opened:     make([]bool, n),
		openCost:   append([]float64(nil), p.Opening...),
		remaining:  n,
		unconn:     make([]int, 0, n),
		conn:       make([]int, 0, n),
		key:        make([]float64, n),
		gen:        make([]uint32, n),
		epoch:      make([]int32, n),
		eval:       make([]candEval, n),
		curveHead:  make([]float64, n*(lazyCurveK-1)),
		curveTail:  make([]float64, n),
		gainSince:  make([]float64, n),
		heap:       make([]lazyHeapEntry, 0, n),
		scratch:    make([]offlineScratch, workers),
		evOut:      make([]lazyEventScratch, workers),
		seenIter:   make([]int32, n),
		gainAcc:    make([]float64, n),
		acceptHook: acceptHook,
	}
	for j := range s.assign {
		s.assign[j] = unassigned
		s.curCost[j] = math.Inf(1)
		s.epoch[j] = -1
		s.seenIter[j] = -1
	}
	for w := range s.scratch {
		s.scratch[w].idx = make([]int, 0, n)
		s.scratch[w].cost = make([]float64, 0, n)
	}
	s.batchBody = func(w, lo, hi int) {
		sc := &s.scratch[w]
		for k := lo; k < hi; k++ {
			i := s.batch[k]
			s.eval[i], s.curveTail[i] = evalRatioCurve(
				s.p, int(i), s.curCost, s.openCost[i], s.conn, s.unconn, sc, s.curveHeadOf(i))
		}
	}
	s.eventBody = func(w, lo, hi int) {
		out := &s.evOut[w]
		mark := 0
		for e := lo; e < hi; e++ {
			ev := s.events[e]
			jLoc := s.p.Demands[ev.j].Loc
			out.hits = s.tree.WithinDist2(jLoc, ev.r2, out.hits)
			for _, i := range out.hits[mark:] {
				out.gains = append(out.gains, ev.cost-s.p.Walk(int(i), int(ev.j)))
			}
			mark = len(out.hits)
		}
	}

	s.seedBounds()
	for iter := int32(0); s.remaining > 0; iter++ {
		if iter > 0 {
			s.rebuildUnconn()
		}
		w := s.selectWinner(iter)
		if w < 0 {
			// Unreachable for valid instances: every candidate always
			// keeps a live heap entry and can connect at least one
			// client.
			return nil, ErrEmptyProblem
		}
		if s.acceptHook != nil {
			s.acceptHook(s, iter, w)
		}
		s.applyWinner(iter, w)
	}

	sol := &Solution{Open: s.openOrder, Assign: s.assign}
	// Final clean-up: nearest reassignment can only help.
	if err := p.ReassignNearest(sol); err != nil {
		return nil, err
	}
	dropUnusedStations(p, sol)
	return sol, nil
}

// rebuildUnconn refreshes the shared unconnected-client list and its
// complement, both ascending by client index — the exact sweep's order.
//
//esharing:deterministic
func (s *lazySolver) rebuildUnconn() {
	s.unconn = s.unconn[:0]
	s.conn = s.conn[:0]
	for j := 0; j < len(s.assign); j++ {
		if s.assign[j] == unassigned {
			s.unconn = append(s.unconn, j)
		} else {
			s.conn = append(s.conn, j)
		}
	}
}

// curveHeadOf returns candidate i's slice of the flattened head-ratio
// array: r_1..r_{lazyCurveK-1} from its last exact evaluation.
func (s *lazySolver) curveHeadOf(i int32) []float64 {
	lo := int(i) * (lazyCurveK - 1)
	return s.curveHead[lo : lo+lazyCurveK-1 : lo+lazyCurveK-1]
}

// evalRatioCurve scores candidate i exactly like the exact oracle's
// evalCandidate — same switch savings in the same ascending-client
// order, same minimum prefix ratio over the unconnected clients in
// ascending cost order — while touching only what the ratio needs: it
// walks the connected list for savings instead of scanning all clients,
// and hands the bare unconnected costs to minRatioCurve, which finds the
// minimum prefix without sorting them all. Alongside the best (ratio,
// prefix, last cost) it records the truncated ratio curve into head
// (prefixes 1..K-1, +Inf-padded) and returns an admissible tail value
// (at most the minimum ratio over prefixes >= K, +Inf when none).
func evalRatioCurve(p *Problem, i int, curCost []float64, openCost float64, conn, unconn []int, sc *offlineScratch, head []float64) (candEval, float64) {
	var savings float64
	for _, j := range conn {
		if c := p.Walk(i, j); c < curCost[j] {
			savings += curCost[j] - c
		}
	}
	cost := sc.cost[:0]
	for _, j := range unconn {
		cost = append(cost, p.Walk(i, j))
	}
	sc.cost = cost
	return minRatioCurve(openCost-savings, cost, head)
}

// minRatioCurve returns the first strict minimum of the Eq. 5 prefix
// ratios (base + S_k)/k over cost in ascending order, bit for bit what
// sorting all of cost and scanning it gives, but it sorts only the part
// that can matter and falls back to the full sort when it cannot certify
// the result (DESIGN.md §13, "Hot-path mechanics"). The client
// permutation evalCandidate's paired sort also fixes is irrelevant:
// exact cost ties contribute bitwise-equal values to every prefix sum in
// either order, so only the sorted value sequence counts. cost is
// reordered in place.
func minRatioCurve(base float64, cost, head []float64) (candEval, float64) {
	rc := newRatioCurve(base, head)
	if rc.selective(cost) {
		return rc.best, rc.tail
	}
	slices.Sort(cost)
	rc = newRatioCurve(base, head)
	rc.extend(cost)
	return rc.best, rc.tail
}

// ratioCurve is the running state of one prefix-ratio scan: the float
// prefix sum, the number of prefixes scored, the first strict minimum,
// the curve slots (head for prefixes < lazyCurveK, the tail minimum for
// the rest) and the base the ratios are taken over.
type ratioCurve struct {
	base float64
	acc  float64
	n    int
	best candEval
	tail float64
	head []float64
}

// newRatioCurve starts a scan with every curve slot and the minimum at
// +Inf.
func newRatioCurve(base float64, head []float64) ratioCurve {
	for k := range head {
		head[k] = math.Inf(1)
	}
	return ratioCurve{base: base, head: head, best: candEval{ratio: math.Inf(1)}, tail: math.Inf(1)}
}

// extend scores the prefixes that end in sorted, which must continue
// the ascending sequence already scanned.
func (rc *ratioCurve) extend(sorted []float64) {
	for _, c := range sorted {
		rc.acc += c
		rc.n++
		ratio := (rc.base + rc.acc) / float64(rc.n)
		if rc.n < lazyCurveK {
			rc.head[rc.n-1] = ratio
		} else if ratio < rc.tail {
			rc.tail = ratio
		}
		if ratio < rc.best.ratio {
			rc.best = candEval{ratio: ratio, prefix: rc.n, last: c}
		}
	}
}

// selective scores the lazyCurveK smallest costs and, if the next
// smallest is at most the best ratio so far, every cost <= best,
// partitioned to the front of cost and sorted: in exact arithmetic the
// last cost of a minimising prefix never exceeds its ratio, or dropping
// it would lower the ratio. It reports whether certify then holds; on
// false the caller must rescan a full sort.
func (rc *ratioCurve) selective(cost []float64) bool {
	// The lazyCurveK+1 smallest costs, ascending, by insertion: the
	// first lazyCurveK are scored and the last is the smallest left out.
	var buf [lazyCurveK + 1]float64
	nb := 0
	for _, c := range cost {
		if nb == len(buf) {
			if c >= buf[nb-1] {
				continue
			}
			nb--
		}
		k := nb
		for k > 0 && buf[k-1] > c {
			buf[k] = buf[k-1]
			k--
		}
		buf[k] = c
		nb++
	}
	if nb <= lazyCurveK {
		rc.extend(buf[:nb])
		return true
	}
	rc.extend(buf[:lazyCurveK])
	rest := buf[lazyCurveK]
	if thr := rc.best.ratio; rest <= thr {
		lo := 0
		rest = math.Inf(1)
		for k, c := range cost {
			if c <= thr {
				cost[lo], cost[k] = c, cost[lo]
				lo++
			} else if c < rest {
				rest = c
			}
		}
		slices.Sort(cost[:lo])
		// The first lazyCurveK sorted values are buf's: the smallest.
		rc.extend(cost[lazyCurveK:lo])
	}
	return rc.certify(rest, len(cost))
}

// certify extends the scan from rc.n to total prefixes as if every
// remaining cost were m, the smallest cost left out of the sorted part.
// The full sort's later costs are all >= m, and float + and / are
// monotone, so each extended ratio is at most the one the full sort
// computes at the same position: if none is strictly below best, best
// stays the full sort's first strict minimum, bit for bit. The extended
// ratios also fill the tail slot, where a lower value stays admissible.
func (rc *ratioCurve) certify(m float64, total int) bool {
	acc, tail := rc.acc, rc.tail
	for k := rc.n + 1; k <= total; k++ {
		acc += m
		lb := (rc.base + acc) / float64(k)
		if lb < rc.best.ratio {
			return false
		}
		if lb < tail {
			tail = lb
		}
	}
	rc.tail = tail
	return true
}

// boundKey turns candidate i's cached ratio curve and accrued base
// decrease into an admissible lower bound on its current ratio. Per-k
// monotonicity makes every cached r_k a lower bound on today's r_k
// before base decreases (clients leaving the unconnected set only raise
// each fixed-length prefix ratio; shrinking savings only raise the
// base), and a total base decrease of g lowers the prefix-k ratio by
// exactly g/k — so the minimum of r_k − g/k over k < K and
// rTail − g/K over the tail bounds the true minimum from below. The
// final slack subtraction absorbs float rounding in the curve, the gain
// accumulation and this scan, keeping the bound admissible against the
// bit-exact ratios a re-evaluation will compute.
func (s *lazySolver) boundKey(i int32) float64 {
	g := s.gainSince[i]
	b := s.curveTail[i] - g/lazyCurveK
	for k, r := range s.curveHeadOf(i) {
		if v := r - g/float64(k+1); v < b {
			b = v
		}
	}
	return b - lazyBoundSlack*(math.Abs(b)+g+1)
}

// seedNN is the neighbourhood size the seed bounds are built from: each
// candidate fetches its seedNN nearest demand points and lower-bounds
// every prefix-cost sum with true per-neighbour costs inside that ball
// and the floor w_min * d_seedNN outside it. Larger values tighten the
// tail bound (the average of the seedNN nearest costs) at a linear cost
// in the one-time seeding sweep; 64 keeps seeding thousands of times
// cheaper than the full initial evaluation it replaces while bounding
// tightly enough that only candidates genuinely near the action are
// ever exactly evaluated.
const seedNN = 64

// seedBounds replaces the exact initial scoring sweep — n sorts of n
// costs, the dominant cost at city scale — with admissible per-candidate
// seed bounds: every candidate enters the queue at a cheap lower bound
// on its initial Eq. 5 ratio, its curve slots pre-loaded with per-prefix
// bounds so later invalidation gains decrement them exactly like an
// evaluated curve. Candidates stay at epoch -1, so whichever of them
// surface at the queue top are exactly evaluated on demand — the lazy
// machinery's normal stale path — and the winner-invariance argument
// applies unchanged: seeds are just another admissible key assignment,
// so the solution bits cannot depend on them.
//
// The bound: let d_1 <= ... <= d_seedNN be the distances of candidate
// i's seedNN nearest demand points (self included, d = 0). Any k
// clients cost at least the k smallest values of the multiset holding
// w_j*d_j for the ball members and w_min*d_seedNN for everyone outside
// the ball (each outside client walks at least d_seedNN). Prefix sums
// S_k of that merged ascending multiset give
//
//	r_k >= (openCost_i + S_k)/k            (k < lazyCurveK)
//	r_k >= S_K/K for every k >= K          (average monotonicity)
//
// and the usual boundKey slack absorbs the sqrt-vs-hypot rounding skew.
//
//esharing:deterministic
func (s *lazySolver) seedBounds() {
	s.rebuildUnconn()
	p := s.p
	n := len(p.Demands)
	wMin := math.Inf(1)
	for _, d := range p.Demands {
		if d.Arrivals < wMin {
			wMin = d.Arrivals
		}
	}
	parallel.ForChunks(s.workers, n, func(w, lo, hi int) {
		knnIdx := make([]int32, 0, seedNN)
		knnD2 := make([]float64, 0, seedNN)
		costs := make([]float64, 0, seedNN)
		for i := lo; i < hi; i++ {
			knnIdx, knnD2 = s.tree.KNearest(p.Demands[i].Loc, seedNN, knnIdx, knnD2)
			costs = costs[:0]
			maxD2 := 0.0
			for k, jj := range knnIdx {
				d2 := knnD2[k]
				if d2 > maxD2 {
					maxD2 = d2
				}
				costs = append(costs, p.Demands[jj].Arrivals*math.Sqrt(d2))
			}
			slices.Sort(costs)
			// Clients outside the ball are at least the ball radius away.
			floor := math.Inf(1)
			if len(costs) == seedNN && seedNN < n {
				floor = wMin * math.Sqrt(maxD2)
			}
			head := s.curveHeadOf(int32(i))
			var acc float64
			ptr := 0
			for k := 1; k <= lazyCurveK; k++ {
				next := floor
				if ptr < len(costs) && costs[ptr] < floor {
					next = costs[ptr]
					ptr++
				}
				acc += next
				if k < lazyCurveK {
					head[k-1] = (s.openCost[i] + acc) / float64(k)
				} else {
					s.curveTail[i] = acc / float64(k)
				}
			}
		}
	})
	for i := range s.key {
		s.key[i] = s.boundKey(int32(i))
		s.heap = append(s.heap, lazyHeapEntry{key: s.key[i], idx: int32(i), gen: 0})
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// selectWinner pops the queue until the top entry was scored this
// iteration. Stale live entries are re-scored exactly in batches of up
// to `workers` — the deterministic per-bucket fan-out of invalidated
// candidates — and pushed back with fresh keys. Returns -1 only on a
// broken invariant (empty queue).
//
//esharing:deterministic
func (s *lazySolver) selectWinner(iter int32) int32 {
	for {
		e, ok := s.popLive()
		if !ok {
			return -1
		}
		if s.epoch[e.idx] == iter {
			return e.idx
		}
		// Gather up to `workers` stale candidates: the current queue
		// minima, which are exactly the candidates the one-at-a-time
		// lazy scheme would re-score next (modulo re-scored keys
		// rising, which only spares work later).
		s.batch = append(s.batch[:0], e.idx)
		for len(s.batch) < s.workers {
			e2, ok := s.popLive()
			if !ok {
				break
			}
			if s.epoch[e2.idx] == iter {
				// Already exact this iteration: park it back; it may
				// well be the winner once the batch re-scores.
				s.push(e2)
				break
			}
			s.batch = append(s.batch, e2.idx)
		}
		// Fan the batch out only when each evaluation is heavy enough
		// to amortise the fork-join: a re-score walks all n clients,
		// so small instances run the batch inline regardless of the
		// worker count. Either path produces the same bits — the
		// evaluations are independent and exact.
		if len(s.batch) > 1 && len(s.assign) >= lazyParallelEvalMin {
			parallel.ForChunks(s.workers, len(s.batch), s.batchBody)
		} else {
			s.batchBody(0, 0, len(s.batch))
		}
		for _, i := range s.batch {
			s.epoch[i] = iter
			s.key[i] = s.eval[i].ratio
			s.gainSince[i] = 0
			s.gen[i]++
			s.push(lazyHeapEntry{key: s.key[i], idx: i, gen: s.gen[i]})
		}
	}
}

// applyWinner opens w (if new), connects its chosen prefix and switches
// connected clients that save — the exact sweep's phase 2, instruction
// for instruction — then feeds the resulting invalidation events to the
// neighbourhood fan-out and re-arms w's heap entry.
//
//esharing:deterministic
func (s *lazySolver) applyWinner(iter int32, w int32) {
	p := s.p
	i := int(w)
	if !s.opened[i] {
		s.opened[i] = true
		s.openOrder = append(s.openOrder, i)
	}
	openCostPre := s.openCost[i]
	s.openCost[i] = 0

	// Re-derive the head of the winner's sorted order — ascending cost,
	// ties by client index — and connect the chosen prefix, recording one
	// invalidation event per connected client. Only clients costing at
	// most the prefix's last cost can be in the prefix, and sorting just
	// them by the same total order puts them in the full sort's order.
	sc := &s.scratch[0]
	sc.idx = sc.idx[:0]
	sc.cost = sc.cost[:0]
	last := s.eval[i].last
	for _, j := range s.unconn {
		if c := p.Walk(i, j); c <= last {
			sc.idx = append(sc.idx, j)
			sc.cost = append(sc.cost, c)
		}
	}
	sort.Sort(sc)
	wLoc := p.Demands[i].Loc
	s.events = s.events[:0]
	for k := 0; k < s.eval[i].prefix; k++ {
		j := sc.idx[k]
		s.assign[j] = i
		s.curCost[j] = sc.cost[k]
		s.remaining--
		r2 := wLoc.Dist2(p.Demands[j].Loc)
		if r2 > 0 {
			s.events = append(s.events, connectEvent{
				j:    int32(j),
				cost: sc.cost[k],
				r2:   r2 + r2*lazyRadiusSlack,
			})
		}
	}
	// Switch connected clients that save. curCost only decreases here,
	// which can only shrink other candidates' savings — a ratio
	// increase, needing no invalidation.
	for j := 0; j < len(s.assign); j++ {
		if s.assign[j] == unassigned || s.assign[j] == i {
			continue
		}
		if c := p.Walk(i, j); c < s.curCost[j] {
			s.assign[j] = i
			s.curCost[j] = c
		}
	}

	s.invalidateNeighbourhoods(iter)

	// Re-arm the winner's queue entry. The zeroed opening cost is a base
	// decrease like any savings gain — credit it and re-derive the bound
	// from the winner's cached curve. (Its own new clients contribute
	// zero savings and only ever raise the ratio otherwise.)
	if openCostPre > 0 {
		s.gainSince[w] += openCostPre
		s.key[w] = s.boundKey(w)
		s.gen[w]++
	}
	s.push(lazyHeapEntry{key: s.key[w], idx: w, gen: s.gen[w]})
}

// invalidateNeighbourhoods turns this iteration's connection events into
// key decrements. Phase 1 fans the kd-tree range queries and gain
// computations out over contiguous event chunks (each event is
// self-contained, so chunking cannot change any gain); phase 2 folds the
// per-worker hit lists in ascending event order, accumulating one total
// gain per candidate; phase 3 lowers each invalidated candidate's key
// once and pushes its fresh generation.
//
//esharing:deterministic
func (s *lazySolver) invalidateNeighbourhoods(iter int32) {
	if len(s.events) == 0 {
		return
	}
	// Reset every worker buffer up front: ForChunks clamps the worker
	// count to the event count, and a worker that owns no chunk this
	// iteration must not contribute last iteration's hits to the fold.
	for w := range s.evOut {
		s.evOut[w].hits = s.evOut[w].hits[:0]
		s.evOut[w].gains = s.evOut[w].gains[:0]
	}
	parallel.ForChunks(s.workers, len(s.events), s.eventBody)
	// Fold in ascending event order (= ascending worker chunk order):
	// every candidate's total gain is a fixed-order sum, independent of
	// the worker count only in value distribution, and in any case the
	// solution is invariant to key bits by admissibility.
	s.dirty = s.dirty[:0]
	for w := 0; w < s.workers; w++ {
		out := &s.evOut[w]
		for k, i := range out.hits {
			gain := out.gains[k]
			if !(gain > 0) {
				// Radius slack over-covers; only strictly positive
				// savings invalidate.
				continue
			}
			if s.seenIter[i] != iter {
				s.seenIter[i] = iter
				s.gainAcc[i] = 0
				s.dirty = append(s.dirty, i)
			}
			s.gainAcc[i] += gain
		}
	}
	for _, i := range s.dirty {
		s.gainSince[i] += s.gainAcc[i]
		s.key[i] = s.boundKey(i)
		s.gen[i]++
		s.push(lazyHeapEntry{key: s.key[i], idx: i, gen: s.gen[i]})
	}
}

// popLive pops entries until one matches its candidate's current
// generation, discarding the dead.
//
//esharing:deterministic
func (s *lazySolver) popLive() (lazyHeapEntry, bool) {
	for len(s.heap) > 0 {
		e := s.pop()
		if e.gen == s.gen[e.idx] {
			return e, true
		}
	}
	return lazyHeapEntry{}, false
}

// entryLess orders the queue by (key, candidate index), strict
// comparisons only: the heap minimum is the lexicographic minimum, so
// equal keys resolve to the lowest candidate index — the exact sweep's
// first-strict-minimum tie-break.
func entryLess(a, b lazyHeapEntry) bool {
	if a.key < b.key {
		return true
	}
	if b.key < a.key {
		return false
	}
	return a.idx < b.idx
}

//esharing:deterministic
func (s *lazySolver) push(e lazyHeapEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s.heap[i], s.heap[parent]) {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

//esharing:deterministic
func (s *lazySolver) pop() lazyHeapEntry {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return top
}

//esharing:deterministic
func (s *lazySolver) siftDown(i int) {
	n := len(s.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		m := left
		if right := left + 1; right < n && entryLess(s.heap[right], s.heap[left]) {
			m = right
		}
		if !entryLess(s.heap[m], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}
