package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/geo"
)

// This file is the durability seam of the online placers: every mutable
// field that influences a future Place decision can be serialized and
// restored bit-identically, so a write-ahead log of decisions replayed
// through a restored placer reproduces the exact pre-crash state. The
// immutable construction inputs (config, seed, landmark set, historical
// sample) are NOT part of the state — the operator must rebuild the
// placer from identical inputs, and ConfigDigest fingerprints them so a
// mismatched restore is refused instead of silently diverging.

// DurablePlacer is an OnlinePlacer whose complete mutable decision
// state can be captured and restored for write-ahead-log recovery.
//
// The contract: for a placer p and a fresh placer q built from
// identical construction inputs (ConfigDigest()s equal), after
// q.UnmarshalState(state) where state came from p.MarshalState(), every
// subsequent identical request stream produces bit-identical decisions
// from p and q — station coordinates, indices, opened flags and walk
// distances all equal.
type DurablePlacer interface {
	OnlinePlacer
	// ConfigDigest fingerprints the immutable construction inputs
	// (algorithm, config, seed, landmark set, historical sample). Two
	// placers with equal digests are interchangeable replay targets.
	ConfigDigest() uint64
	// MarshalState serializes the mutable decision state.
	MarshalState() ([]byte, error)
	// UnmarshalState restores state captured by MarshalState on a
	// placer built from the same construction inputs.
	UnmarshalState(data []byte) error
}

var (
	_ DurablePlacer = (*ESharing)(nil)
	_ DurablePlacer = (*Meyerson)(nil)
	_ DurablePlacer = (*OnlineKMeans)(nil)
)

// StationRemover is the optional station-removal capability (the
// paper's footnote-2 pickup path) used when replaying pickup records.
type StationRemover interface {
	RemoveStation(index int) error
}

// State-format version bytes, one per placer, bumped whenever the
// corresponding layout changes.
const (
	esharingStateVersion uint16 = 1
	meyersonStateVersion uint16 = 1
	kmeansStateVersion   uint16 = 1
)

// ---- binary state codec ------------------------------------------------

// stateEncoder appends little-endian primitives to a growing buffer.
type stateEncoder struct{ buf []byte }

func (e *stateEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *stateEncoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *stateEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *stateEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *stateEncoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *stateEncoder) f64(v float64) {
	// Bit-pattern encoding: NaN payloads and signed zeros survive the
	// round trip, which float formatting would lose.
	e.u64(math.Float64bits(v))
}

func (e *stateEncoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *stateEncoder) points(pts []geo.Point) {
	e.u32(uint32(len(pts)))
	for _, p := range pts {
		e.f64(p.X)
		e.f64(p.Y)
	}
}

// stateDecoder reads the encoder's layout back, latching the first
// error so call sites stay linear.
type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: truncated placer state")
	}
}

func (d *stateDecoder) take(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *stateDecoder) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *stateDecoder) u16() uint16 {
	if b := d.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (d *stateDecoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *stateDecoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *stateDecoder) i64() int64   { return int64(d.u64()) }
func (d *stateDecoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *stateDecoder) int() int     { return int(d.i64()) }

func (d *stateDecoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}

func (d *stateDecoder) points() []geo.Point {
	n := d.u32()
	// 16 bytes per point: reject counts the remaining buffer cannot
	// hold before allocating.
	if d.err != nil || uint64(n)*16 > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: d.f64(), Y: d.f64()}
	}
	return pts
}

func (d *stateDecoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes after placer state", len(d.buf))
	}
	return nil
}

// ---- config digests ----------------------------------------------------

// digestWriter accumulates an FNV-1a fingerprint of construction inputs.
type digestWriter struct{ h uint64 }

func newDigestWriter() *digestWriter { return &digestWriter{h: fnvOffset} }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (w *digestWriter) u64(v uint64) {
	for i := 0; i < 8; i++ {
		w.h ^= uint64(byte(v >> (8 * i)))
		w.h *= fnvPrime
	}
}

func (w *digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *digestWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *digestWriter) bool(v bool)   { w.u64(map[bool]uint64{false: 0, true: 1}[v]) }
func (w *digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.h ^= uint64(s[i])
		w.h *= fnvPrime
	}
}

func (w *digestWriter) points(pts []geo.Point) {
	w.u64(uint64(len(pts)))
	for _, p := range pts {
		w.f64(p.X)
		w.f64(p.Y)
	}
}

// multiset digests h's canonical (point, count) list, so a history
// digests the same whatever order its rows arrived in.
func (w *digestWriter) multiset(h geo.Multiset) {
	pts, counts := h.Points(), h.Counts()
	w.u64(uint64(len(pts)))
	for i, p := range pts {
		w.f64(p.X)
		w.f64(p.Y)
		w.i64(int64(counts[i]))
	}
}

func esharingConfigDigest(offline []geo.Point, baseOpening float64, hist geo.Multiset, cfg ESharingConfig) uint64 {
	w := newDigestWriter()
	w.str("e-sharing")
	w.f64(cfg.Beta)
	w.f64(cfg.Tolerance)
	w.i64(int64(cfg.TestEvery))
	w.i64(int64(cfg.WindowSize))
	w.i64(int64(cfg.InitialPenalty))
	w.bool(cfg.AdaptTolerance)
	w.u64(cfg.Seed)
	w.f64(baseOpening)
	w.points(offline)
	w.multiset(hist)
	return w.h
}

func meyersonConfigDigest(openingCost float64, seed uint64) uint64 {
	w := newDigestWriter()
	w.str("meyerson")
	w.f64(openingCost)
	w.u64(seed)
	return w.h
}

func kmeansConfigDigest(targetK int, seed uint64) uint64 {
	w := newDigestWriter()
	w.str("online-kmeans")
	w.i64(int64(targetK))
	w.u64(seed)
	return w.h
}

// StationDigest fingerprints an ordered station set (FNV-1a over the
// coordinate bit patterns); recovery uses it to cross-check that a
// restored placer republishes exactly the pre-crash station list.
func StationDigest(pts []geo.Point) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// ---- ESharing ----------------------------------------------------------

// ConfigDigest implements DurablePlacer.
func (e *ESharing) ConfigDigest() uint64 { return e.configDigest }

// MarshalState implements DurablePlacer. A placer with a custom penalty
// installed cannot be snapshotted: the override is an arbitrary
// function the codec cannot capture.
func (e *ESharing) MarshalState() ([]byte, error) {
	if e.customPenalty != nil {
		return nil, fmt.Errorf("core: cannot snapshot an ESharing with a custom penalty installed")
	}
	rngState, err := e.rng.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("core: marshal rng state: %w", err)
	}
	var enc stateEncoder
	enc.u16(esharingStateVersion)
	enc.points(e.index.Points())
	enc.i64(int64(e.landmarks))
	enc.f64(e.f)
	enc.i64(int64(e.opensSince))
	enc.i64(int64(e.onlineOpens))
	enc.i64(int64(e.requests))
	enc.points(e.window)
	enc.f64(e.lastSim)
	enc.u8(uint8(e.penalty.Type))
	enc.f64(e.penalty.Tolerance)
	enc.bytes(rngState)
	return enc.buf, nil
}

// UnmarshalState implements DurablePlacer; the receiver must have been
// built from the construction inputs the state was captured under
// (verify via ConfigDigest before calling).
func (e *ESharing) UnmarshalState(data []byte) error {
	if e.customPenalty != nil {
		return fmt.Errorf("core: cannot restore state over a custom penalty")
	}
	dec := stateDecoder{buf: data}
	if v := dec.u16(); dec.err == nil && v != esharingStateVersion {
		return fmt.Errorf("core: e-sharing state version %d, want %d", v, esharingStateVersion)
	}
	stations := dec.points()
	landmarks := dec.int()
	f := dec.f64()
	opensSince := dec.int()
	onlineOpens := dec.int()
	requests := dec.int()
	window := dec.points()
	lastSim := dec.f64()
	penType := PenaltyType(dec.u8())
	penTol := dec.f64()
	rngState := dec.bytes()
	if err := dec.finish(); err != nil {
		return err
	}
	if landmarks < 0 || landmarks > len(stations) {
		return fmt.Errorf("core: restored landmark count %d outside [0,%d]", landmarks, len(stations))
	}
	pen, err := NewPenalty(penType, penTol)
	if err != nil {
		return fmt.Errorf("core: restore penalty: %w", err)
	}
	if err := e.rng.UnmarshalState(rngState); err != nil {
		return fmt.Errorf("core: restore rng state: %w", err)
	}
	// geo.DynamicIndex guarantees Nearest results bit-identical to a
	// linear scan over the same insertion-ordered points, so rebuilding
	// the index from the flat station list is query-identical to the
	// incrementally grown pre-crash index.
	e.index = geo.NewDynamicIndex(stations)
	e.landmarks = landmarks
	e.f = f
	e.opensSince = opensSince
	e.onlineOpens = onlineOpens
	e.requests = requests
	e.window = window
	e.lastSim = lastSim
	e.penalty = pen
	return nil
}

// ---- Meyerson ----------------------------------------------------------

// ConfigDigest implements DurablePlacer.
func (m *Meyerson) ConfigDigest() uint64 { return m.configDigest }

// MarshalState implements DurablePlacer.
func (m *Meyerson) MarshalState() ([]byte, error) {
	rngState, err := m.rng.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("core: marshal rng state: %w", err)
	}
	var enc stateEncoder
	enc.u16(meyersonStateVersion)
	enc.points(m.index.Points())
	enc.bytes(rngState)
	return enc.buf, nil
}

// UnmarshalState implements DurablePlacer.
func (m *Meyerson) UnmarshalState(data []byte) error {
	dec := stateDecoder{buf: data}
	if v := dec.u16(); dec.err == nil && v != meyersonStateVersion {
		return fmt.Errorf("core: meyerson state version %d, want %d", v, meyersonStateVersion)
	}
	stations := dec.points()
	rngState := dec.bytes()
	if err := dec.finish(); err != nil {
		return err
	}
	if err := m.rng.UnmarshalState(rngState); err != nil {
		return fmt.Errorf("core: restore rng state: %w", err)
	}
	m.index = geo.NewDynamicIndex(stations)
	return nil
}

// ---- OnlineKMeans ------------------------------------------------------

// ConfigDigest implements DurablePlacer.
func (o *OnlineKMeans) ConfigDigest() uint64 { return o.configDigest }

// MarshalState implements DurablePlacer.
func (o *OnlineKMeans) MarshalState() ([]byte, error) {
	rngState, err := o.rng.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("core: marshal rng state: %w", err)
	}
	var enc stateEncoder
	enc.u16(kmeansStateVersion)
	enc.points(o.index.Points())
	enc.points(o.buffer)
	enc.f64(o.facility)
	enc.i64(int64(o.phaseNew))
	enc.bytes(rngState)
	return enc.buf, nil
}

// UnmarshalState implements DurablePlacer.
func (o *OnlineKMeans) UnmarshalState(data []byte) error {
	dec := stateDecoder{buf: data}
	if v := dec.u16(); dec.err == nil && v != kmeansStateVersion {
		return fmt.Errorf("core: online-kmeans state version %d, want %d", v, kmeansStateVersion)
	}
	stations := dec.points()
	buffer := dec.points()
	facility := dec.f64()
	phaseNew := dec.int()
	rngState := dec.bytes()
	if err := dec.finish(); err != nil {
		return err
	}
	if err := o.rng.UnmarshalState(rngState); err != nil {
		return fmt.Errorf("core: restore rng state: %w", err)
	}
	o.index = geo.NewDynamicIndex(stations)
	o.buffer = buffer
	o.facility = facility
	o.phaseNew = phaseNew
	return nil
}
