package server

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wal"
)

// Durability wiring: when built with WithWAL, every accepted placement
// is appended to the owning shard's write-ahead log under that shard's
// decision lock before the response is released, and construction
// replays any existing log — through the placer itself, bypassing HTTP
// — to recover the exact pre-crash state. Each shard's log is
// independent (multi-shard servers keep them under walDir/shard-<index>),
// so the recovery invariant holds per shard: every replayed record must
// reproduce the logged decision bit for bit, the restored snapshot must
// reproduce the logged station digest and similarity figure, and any
// mismatch refuses startup rather than serve from a silently diverged
// engine.

// WithWAL attaches a durable decision log rooted at dir. syncEvery
// batches fsyncs (1 = sync every decision, 0 = let the OS decide);
// snapshotEvery checkpoints and truncates the log after that many
// records (0 disables the cadence). A single-shard server keeps its
// log at dir itself, the on-disk layout every single-shard log has had;
// multi-shard servers give each shard dir/shard-<index>.
func WithWAL(dir string, syncEvery int, snapshotEvery uint64) Option {
	return func(s *Server) {
		s.walDir = dir
		s.walOpts = wal.Options{SyncEvery: syncEvery, SnapshotEvery: snapshotEvery}
	}
}

// openWAL opens (or creates) the shard's decision log in dir, with the
// cadences in opts, and replays whatever it finds into the freshly
// built placer. Called from NewSharded before the server starts
// serving; it still takes the decision lock for real, so the lock
// discipline holds even if construction ever overlaps serving.
func (sh *shard) openWAL(dir string, opts wal.Options) error {
	sh.decision <- struct{}{}
	defer func() { <-sh.decision }()
	opts.ConfigDigest = sh.placer.ConfigDigest()
	opts.Name = sh.placer.Name()
	log, rec, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}

	start := time.Now()
	if err := sh.replayRecovered(rec); err != nil {
		// The replay failure is what matters; a close failure on the
		// already-rejected log rides along in the join.
		return errors.Join(err, log.Close())
	}
	sh.walReplayNanos.Store(time.Since(start).Nanoseconds())
	sh.walReplayed.Store(int64(len(rec.Tail)))
	sh.walRestored.Store(rec.Snapshot != nil)
	sh.wal = log
	sh.walStats = log
	return nil
}

// replayRecovered restores the snapshot and re-drives the log tail
// through the placer, verifying bit-identical reproduction of every
// recorded decision; caller holds decision.
//
//esharing:deterministic
func (sh *shard) replayRecovered(rec *wal.Recovered) error {
	if snap := rec.Snapshot; snap != nil {
		if err := sh.placer.UnmarshalState(snap.PlacerState); err != nil {
			return fmt.Errorf("server: restore wal snapshot: %w", err)
		}
		if got := core.StationDigest(sh.placer.Stations()); got != snap.StationsDigest {
			return fmt.Errorf("server: restored station set digest %#x, snapshot recorded %#x", got, snap.StationsDigest)
		}
		if sim, ok := sh.lastSim(); ok && math.Float64bits(sim) != snap.SimBits {
			return fmt.Errorf("server: restored similarity %v, snapshot recorded %v",
				sim, math.Float64frombits(snap.SimBits))
		}
		sh.requests.Store(int64(snap.Requests))
		sh.opened.Store(int64(snap.Opened))
		sh.walkBits.Store(snap.WalkBits)
	}
	for i, r := range rec.Tail {
		d, err := sh.placer.Place(r.Dest)
		if err != nil {
			return fmt.Errorf("server: wal replay record %d: %w", i, err)
		}
		if !decisionMatchesRecord(d, r) {
			return fmt.Errorf("server: wal replay diverged at record %d: "+
				"placer produced %+v, log recorded %+v — the engine or its inputs changed since the log was written", i, d, r)
		}
		sh.record(d)
	}
	return nil
}

// decisionMatchesRecord demands bit-for-bit reproduction: coordinates
// and the walk figure compare as float bit patterns, so even a sign-of
// -zero difference counts as divergence.
func decisionMatchesRecord(d core.Decision, r wal.DecisionRecord) bool {
	return d.StationIndex == r.StationIndex &&
		d.Opened == r.Opened &&
		math.Float64bits(d.Walk) == math.Float64bits(r.Walk) &&
		math.Float64bits(d.Station.X) == math.Float64bits(r.Station.X) &&
		math.Float64bits(d.Station.Y) == math.Float64bits(r.Station.Y)
}

// logDecision appends an accepted placement to the shard's WAL and runs
// the snapshot cadence; caller holds decision. An append or snapshot
// failure does not fail the request — the decision is already applied
// and acknowledged state must match the placer — but it flips the
// server into degraded health (the log is no longer ahead of the
// state) and counts on esharing_wal_failures_total.
func (sh *shard) logDecision(dest geo.Point, d core.Decision) {
	if sh.wal == nil {
		return
	}
	err := sh.wal.AppendDecision(wal.DecisionRecord{
		Dest:         dest,
		Station:      d.Station,
		StationIndex: d.StationIndex,
		Opened:       d.Opened,
		Walk:         d.Walk,
	})
	if err == nil && sh.wal.SnapshotDue() {
		err = sh.writeWALSnapshot()
	}
	if err != nil {
		sh.walFailures.Add(1)
		sh.walFailed.Store(true)
	}
}

// writeWALSnapshot checkpoints the placer and serving counters and
// truncates the shard's log; caller holds decision.
func (sh *shard) writeWALSnapshot() error {
	state, err := sh.placer.MarshalState()
	if err != nil {
		return fmt.Errorf("server: snapshot placer state: %w", err)
	}
	snap := &wal.Snapshot{
		PlacerState:    state,
		Requests:       uint64(sh.requests.Load()),
		Opened:         uint64(sh.opened.Load()),
		WalkBits:       sh.walkBits.Load(),
		StationsDigest: core.StationDigest(sh.placer.Stations()),
	}
	if sim, ok := sh.lastSim(); ok {
		snap.SimBits = math.Float64bits(sim)
	}
	return sh.wal.WriteSnapshot(snap)
}

// closeWAL marks the shard closed, so it refuses every later
// placement, then flushes and closes its decision log (if any; closing
// it again is a no-op). The decision lock is held throughout, so no
// placement can race the final sync or be acknowledged after it.
func (sh *shard) closeWAL() error {
	sh.decision <- struct{}{}
	defer func() { <-sh.decision }()
	sh.closed.Store(true)
	if sh.wal == nil {
		return nil
	}
	return sh.wal.Close()
}

// WALRecovery reports what startup recovery did, summed across shards:
// the log-tail records replayed through the placers, and how many shards
// restored a snapshot before that replay. Both are zero without
// durability. The figures are fixed at construction, so no lock is
// taken.
func (s *Server) WALRecovery() (replayed int64, restored int) {
	for _, sh := range s.shards {
		replayed += sh.walReplayed.Load()
		if sh.walRestored.Load() {
			restored++
		}
	}
	return replayed, restored
}

// Close stops the server acknowledging placements — every later
// POST /v1/requests answers 503 — and flushes and closes every shard's
// decision log, returning the first error. /healthz then answers 503
// "closed"; the other read endpoints keep serving the final state.
func (s *Server) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.closeWAL(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
