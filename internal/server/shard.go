package server

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wal"
)

// A shard is one independent decision loop: its own placer, admission
// queue, decision channel-lock, counters, read snapshot and (optional)
// decision log. Placement is order-dependent only within a city region,
// so the server runs one shard per region partition and routes every
// request by the planar cell of its destination (geo.ShardOf); shards
// never synchronise with each other, which is what lets placement
// throughput scale with the shard count. A single-shard server is the
// same shape with N = 1.
type shard struct {
	index int
	name  string // placer.Name(), cached for error messages and replay

	// placer is the shard's serialised decision engine; every call on
	// it must happen under the shard's decision channel-lock.
	// guarded by decision
	placer core.OnlinePlacer
	// The placer's optional capabilities, resolved once by newShard so
	// publishing, replay and WAL snapshots never re-assert them; each is
	// nil when the placer lacks it.
	// guarded by decision
	sim *core.ESharing // the similarity figure's source
	// guarded by decision
	durable core.DurablePlacer
	// guarded by decision
	remover core.StationRemover

	// decision is a capacity-1 channel used as the placement lock
	// (send = acquire, receive = release): unlike a sync.Mutex, a
	// queued request can abandon the wait when its context is
	// cancelled. queue bounds how many requests may hold or wait for
	// the lock; when it is full, handlePlace sheds with 429.
	decision    chan struct{}
	queue       chan struct{}
	maxInFlight int
	shedMsg     string // 429 body, pre-rendered off the hot path

	// Counters are written only under the shard's decision lock
	// (single writer, see record) and read lock-free by the
	// stats/metrics handlers, which sum them across shards in
	// shard-index order. walkBits holds the math.Float64bits of the
	// cumulative walk distance.
	requests atomic.Int64
	opened   atomic.Int64
	walkBits atomic.Uint64 // guarded by decision
	shed     atomic.Int64  // 429s from this shard's admission gate

	// wal, when non-nil, is the shard's durable decision log (see
	// wal.go): set once during construction, appended to and
	// snapshotted only under the decision lock. Lock-free paths may
	// nil-check the pointer and read its (internally atomic) Metrics.
	// guarded by decision
	wal            *wal.Log
	walFailures    atomic.Int64 // append/snapshot failures (degraded)
	walFailed      atomic.Bool  // latched by the first failure
	walReplayNanos atomic.Int64 // startup replay duration
	walReplayed    atomic.Int64 // log-tail records replayed at startup
	walRestored    atomic.Bool  // startup restored a snapshot first

	snap atomic.Pointer[readSnapshot]
}

// newShard builds shard index around placer p, resolving p's optional
// capabilities once.
func newShard(index int, p core.OnlinePlacer, maxInFlight int) *shard {
	sim, _ := p.(*core.ESharing)
	durable, _ := p.(core.DurablePlacer)
	remover, _ := p.(core.StationRemover)
	return &shard{
		index:       index,
		name:        p.Name(),
		placer:      p,
		sim:         sim,
		durable:     durable,
		remover:     remover,
		decision:    make(chan struct{}, 1),
		queue:       make(chan struct{}, maxInFlight),
		maxInFlight: maxInFlight,
		shedMsg:     fmt.Sprintf("placement queue full on shard %d (%d in flight)", index, maxInFlight),
	}
}

// record adds one applied decision to the shard's serving counters,
// the single writer of requests, opened and walkBits for both live
// placement and startup replay; caller holds decision.
//
//esharing:hotpath
func (sh *shard) record(d core.Decision) {
	sh.requests.Add(1)
	if d.Opened {
		sh.opened.Add(1)
	}
	walk := math.Float64frombits(sh.walkBits.Load()) + d.Walk
	sh.walkBits.Store(math.Float64bits(walk))
}

// lastSim returns the placer's similarity figure and whether it has
// one; caller holds decision.
func (sh *shard) lastSim() (float64, bool) {
	if sh.sim == nil {
		return 0, false
	}
	return sh.sim.LastSimilarity(), true
}

// publishSnapshot republishes the shard's read-side state;
// caller holds decision (or the shard is not yet serving).
// Called whenever the station set or the similarity figure may have
// changed; it copies the station slice, so callers should skip it when
// nothing changed.
func (sh *shard) publishSnapshot() {
	snap := &readSnapshot{stations: sh.placer.Stations()}
	snap.lastSim, snap.hasSim = sh.lastSim()
	sh.snap.Store(snap)
}

// refreshAfterPlace updates the shard's published snapshot after a
// decision; caller holds decision. The station copy is only taken when
// the set actually changed (a station opened); a similarity change
// alone reuses the current slice, which also lets the merged view keep
// its cached /v1/stations encoding (see Server.view).
func (sh *shard) refreshAfterPlace(opened bool) {
	if opened {
		sh.publishSnapshot()
		return
	}
	cur := sh.snap.Load()
	if sim, ok := sh.lastSim(); ok && sim != cur.lastSim {
		sh.snap.Store(&readSnapshot{stations: cur.stations, lastSim: sim, hasSim: true})
	}
}

// route picks the shard for a destination (geo.ShardOf returns 0 for a
// single shard before any cell arithmetic).
//
//esharing:hotpath
func (s *Server) route(dest geo.Point) *shard {
	return s.shards[geo.ShardOf(dest, s.shardPrecision, len(s.shards))]
}
