package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/stats"
)

// ESharingConfig parameterises Algorithm 2 (online parking placement with
// deviation penalty).
type ESharingConfig struct {
	// Beta is the doubling ratio β ≥ 1: the working opening cost doubles
	// after every Beta·k stations opened online.
	Beta float64
	// Tolerance is the penalty level L in metres (paper: 200 m).
	Tolerance float64
	// TestEvery is the number of requests between Peacock KS tests
	// against the historical sample; 0 disables testing (the penalty
	// type then stays fixed).
	TestEvery int
	// WindowSize bounds the recent-request window G used by the test
	// (default: TestEvery, minimum 8).
	WindowSize int
	// InitialPenalty is the penalty type before the first test
	// (Algorithm 2 line 4 starts with Type II).
	InitialPenalty PenaltyType
	// AdaptTolerance scales L with the similarity band: ×1 when very
	// similar, ×1.5 when similar, ×2.5 when less similar — the paper's
	// "increase L and fit such shift".
	AdaptTolerance bool
	// Seed drives the stochastic opening decisions.
	Seed uint64
}

// DefaultESharingConfig returns the paper's evaluation settings.
func DefaultESharingConfig() ESharingConfig {
	return ESharingConfig{
		Beta:           1,
		Tolerance:      200,
		TestEvery:      100,
		InitialPenalty: PenaltyTypeII,
		AdaptTolerance: true,
		Seed:           1,
	}
}

func (c ESharingConfig) validate() error {
	switch {
	case c.Beta < 1:
		return fmt.Errorf("core: beta %v < 1", c.Beta)
	case c.Tolerance <= 0:
		return fmt.Errorf("core: tolerance %v must be positive", c.Tolerance)
	case c.TestEvery < 0:
		return fmt.Errorf("core: test interval %d < 0", c.TestEvery)
	case c.WindowSize < 0:
		return fmt.Errorf("core: window size %d < 0", c.WindowSize)
	}
	switch c.InitialPenalty {
	case NoPenalty, PenaltyTypeI, PenaltyTypeII, PenaltyTypeIII:
	default:
		return fmt.Errorf("core: unknown initial penalty %d", int(c.InitialPenalty))
	}
	return nil
}

// ESharing implements the paper's Algorithm 2. It is seeded with the
// offline solution (k stations used as landmarks and already established)
// and a historical destination sample H. Each request is assigned to its
// nearest station or opens a new one with probability
// min(g(c)·c/f, 1), where g is the active deviation penalty, c the
// distance to the nearest station, and f the working opening cost, which
// starts at the base space cost and doubles after every β·k online
// openings (see the calibration note in NewESharing and DESIGN.md §4b).
// Every TestEvery requests a Peacock 2-D KS test between H and the recent
// window selects the penalty type for the current regime.
type ESharing struct {
	cfg     ESharingConfig
	f       float64           // working opening cost
	k       int               // offline station count; stations[:k] are the landmarks
	index   *geo.DynamicIndex // established stations, in insertion order
	penalty Penalty
	// hist is the caller's history H, held without a copy until the
	// first KS test builds ks from it and drops it (empty when
	// TestEvery is 0, since no test ever runs).
	hist        geo.Multiset
	ks          ksStatistic
	window      []geo.Point
	requests    int
	opensSince  int // online openings since last doubling
	onlineOpens int
	lastSim     float64
	rng         *stats.SnapshotRNG

	// configDigest fingerprints the immutable construction inputs
	// (config, base cost, landmarks, history); see ConfigDigest.
	configDigest uint64

	// customPenalty, when non-nil, overrides penalty.Eval and suspends
	// KS-driven switching (see SetCustomPenalty).
	customPenalty func(c float64) float64
}

var _ OnlinePlacer = (*ESharing)(nil)

// ksStatistic answers the drift test: the Peacock statistic between H
// and a window. Production uses *stats.KSReference; tests substitute a
// direct stats.Peacock2DFast oracle.
type ksStatistic interface {
	Statistic(window []geo.Point) (float64, error)
}

// NewESharing is NewESharingHistory over hist's points, each counted
// once.
func NewESharing(offline []geo.Point, baseOpening float64, hist []geo.Point, cfg ESharingConfig) (*ESharing, error) {
	return NewESharingHistory(offline, baseOpening, geo.FoldPoints(hist), cfg)
}

// NewESharingHistory builds the placer.
//
// offline is the landmark station set P from Algorithm 1 (at least one);
// baseOpening is the real space-occupation cost f charged per station;
// hist is the historical destination sample H backing the KS test (may be
// empty when cfg.TestEvery is 0; every point must be finite, or the error
// wraps stats.ErrNonFiniteSample). The placer keeps hist, which shares
// its slices, and builds its KS reference from it on the first test.
func NewESharingHistory(offline []geo.Point, baseOpening float64, hist geo.Multiset, cfg ESharingConfig) (*ESharing, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(offline) == 0 {
		return nil, fmt.Errorf("%w: algorithm 2 needs the offline landmark set", ErrNoStations)
	}
	if baseOpening <= 0 {
		return nil, fmt.Errorf("core: base opening cost %v must be positive", baseOpening)
	}
	if cfg.TestEvery > 0 && hist.Len() == 0 {
		return nil, fmt.Errorf("core: KS testing enabled but historical sample is empty")
	}
	for i, p := range hist.Points() {
		if !p.IsFinite() {
			return nil, fmt.Errorf("core: historical sample point %d %v: %w", i, p, stats.ErrNonFiniteSample)
		}
	}
	if n := hist.Total(); cfg.TestEvery > 0 && n > stats.MaxReferenceTotal {
		return nil, fmt.Errorf("core: historical sample of %d points: %w", n, stats.ErrSampleTooLarge)
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = cfg.TestEvery
	}
	if cfg.WindowSize < 8 {
		cfg.WindowSize = 8
	}

	digest := esharingConfigDigest(offline, baseOpening, hist, cfg)
	if cfg.TestEvery == 0 {
		hist = geo.Multiset{}
	}
	k := len(offline)
	pen, err := NewPenalty(cfg.InitialPenalty, cfg.Tolerance)
	if err != nil {
		return nil, err
	}
	return &ESharing{
		cfg: cfg,
		// The working opening cost starts at the true space cost and
		// doubles after every β·k online openings until opening is
		// prohibitive. Algorithm 2's literal "f_i ← f_i·w*/k" rescaling is
		// dimensionally ambiguous; starting at f and doubling reproduces
		// the paper's reported behaviour (Fig. 6: 2 online openings over
		// 100 in-distribution requests, ~3 for the surge) — see DESIGN.md.
		f:            baseOpening,
		k:            k,
		index:        geo.NewDynamicIndex(offline),
		penalty:      pen,
		hist:         hist,
		lastSim:      100,
		rng:          stats.NewSnapshotRNGStream(cfg.Seed, stats.StreamESharing),
		configDigest: digest,
	}, nil
}

// Place implements OnlinePlacer.
//
//esharing:hotpath
func (e *ESharing) Place(dest geo.Point) (Decision, error) {
	if !dest.IsFinite() {
		return Decision{}, &NonFiniteError{Dest: dest}
	}
	e.requests++
	e.pushWindow(dest)
	if e.customPenalty == nil && e.cfg.TestEvery > 0 &&
		e.requests%e.cfg.TestEvery == 0 && len(e.window) >= 8 {
		e.runTest()
	}

	// Stations only grow from the k ≥ 1 landmarks, so a nearest one
	// always exists.
	nearest, c := e.index.Nearest(dest)
	g := e.penalty.Eval
	if e.customPenalty != nil {
		g = e.customPenalty
	}
	prob := g(c) * c / e.f
	if prob > 1 {
		prob = 1
	}
	if e.rng.Float64() < prob {
		idx := e.openAt(dest)
		return Decision{Station: dest, StationIndex: idx, Opened: true}, nil
	}
	return Decision{Station: e.index.At(nearest), StationIndex: nearest, Walk: c}, nil
}

func (e *ESharing) openAt(dest geo.Point) int {
	idx := e.index.Insert(dest)
	e.onlineOpens++
	e.opensSince++
	// Line 7–8: after β·k openings the opening cost doubles, making new
	// stations progressively prohibitive.
	if float64(e.opensSince) >= e.cfg.Beta*float64(e.k) {
		e.opensSince = 0
		e.f *= 2
	}
	return idx
}

func (e *ESharing) pushWindow(dest geo.Point) {
	w := e.cfg.WindowSize
	if w <= 0 {
		e.window = e.window[:0]
		return
	}
	// Shift in place rather than reslice: `window = window[len-w:]` keeps
	// the slice pointing into an ever-growing backing array, pinning every
	// point ever pushed. Copying down reuses one O(WindowSize) array for
	// the life of the engine.
	if len(e.window) >= w {
		copy(e.window, e.window[len(e.window)-(w-1):])
		e.window = e.window[:w-1]
	}
	e.window = append(e.window, dest)
}

// runTest performs the Peacock 2-D KS test (Eq. 9) between the historical
// sample and the recent window and switches the penalty function per the
// Section V-C bands. The first test builds the KS reference from H
// (DESIGN.md §15); a placer that never tests never pays for it.
func (e *ESharing) runTest() {
	if e.ks == nil {
		ks, err := stats.NewKSReference(e.hist)
		if err != nil {
			return // unreachable: NewESharingHistory validated H
		}
		e.ks, e.hist = ks, geo.Multiset{}
	}
	d, err := e.ks.Statistic(e.window)
	if err != nil {
		return // window too small; keep the current regime
	}
	sim := stats.Similarity(d)
	e.lastSim = sim
	tol := e.cfg.Tolerance
	if e.cfg.AdaptTolerance {
		switch stats.ClassifySimilarity(sim) {
		case stats.SimilarBand:
			tol *= 1.5
		case stats.LessSimilar:
			tol *= 2.5
		}
	}
	pen, err := NewPenalty(PenaltyForBand(sim), tol)
	if err != nil {
		return
	}
	e.penalty = pen
}

// Stations implements OnlinePlacer.
func (e *ESharing) Stations() []geo.Point {
	return e.index.Points()
}

// Name implements OnlinePlacer.
func (e *ESharing) Name() string { return "e-sharing" }

// Penalty returns the active penalty function.
func (e *ESharing) Penalty() Penalty { return e.penalty }

// LastSimilarity returns the similarity percentage from the most recent
// KS test (100 before any test has run).
func (e *ESharing) LastSimilarity() float64 { return e.lastSim }

// OnlineOpens returns how many stations were opened online (beyond the
// offline landmarks).
func (e *ESharing) OnlineOpens() int { return e.onlineOpens }
