package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// File names inside the log directory. The .tmp/.new files only exist
// transiently during a snapshot; a leftover one is a crashed snapshot
// attempt and is deleted on open (the rename that would have committed
// it never happened, so the previous generation is still authoritative).
const (
	logName     = "wal.log"
	logNewName  = "wal.log.new"
	snapName    = "snapshot.bin"
	snapTmpName = "snapshot.tmp"
)

// ConfigMismatchError reports a log or snapshot written under different
// placer construction inputs than the placer being recovered into.
type ConfigMismatchError struct {
	File string
	Got  uint64 // digest recorded in the file
	Want uint64 // digest of the freshly built placer
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("wal: %s was written under config digest %#x, placer has %#x: "+
		"replaying it would silently diverge; move the log directory aside or restore the original configuration",
		e.File, e.Got, e.Want)
}

// Options configures Open.
type Options struct {
	// ConfigDigest and Name identify the placer the log belongs to
	// (core.DurablePlacer.ConfigDigest / OnlinePlacer.Name).
	ConfigDigest uint64
	Name         string
	// SyncEvery batches fsyncs: the file is synced after every
	// SyncEvery appended records. 1 syncs every append; 0 never syncs
	// explicitly (the OS decides), trading durability for throughput.
	// Open refuses a negative value.
	SyncEvery int
	// SnapshotEvery makes SnapshotDue report true after that many
	// records since the last snapshot (0 disables the cadence; the
	// owner may still snapshot explicitly).
	SnapshotEvery uint64
}

// Snapshot is the durable placer checkpoint that bounds replay time.
// Records counts every decision ever logged at capture time; a log
// whose genesis Base equals Records has an empty tail. The serving
// counters ride along so the server republishes the exact pre-crash
// figures without re-deriving them.
type Snapshot struct {
	ConfigDigest uint64
	Name         string
	Records      uint64
	PlacerState  []byte
	// Serving-path counters at capture time, stored exactly as the
	// server publishes them (walk sum and similarity as float bits).
	Requests uint64
	Opened   uint64
	WalkBits uint64
	SimBits  uint64
	// StationsDigest fingerprints the station set at capture time
	// (core.StationDigest); recovery cross-checks it after restoring
	// PlacerState, catching a placer that deserialized cleanly into
	// the wrong station set.
	StationsDigest uint64
}

const snapVersion uint16 = 1

// Recovered is what Open found on disk: replay the snapshot (if any)
// into a fresh placer, then re-drive Tail through it.
type Recovered struct {
	// Snapshot is the last committed checkpoint, nil if none.
	Snapshot *Snapshot
	// Tail holds the decisions not covered by the snapshot, in log
	// order.
	Tail []DecisionRecord
	// TornBytes is how many trailing bytes were discarded as a torn
	// write (0 for a clean shutdown).
	TornBytes int64
}

// Log is an open write-ahead log. Appends and snapshots must come from
// a single goroutine (the server performs them under its decision
// lock); Metrics is safe to read concurrently.
type Log struct {
	dir  string
	opts Options
	f    *os.File

	records       uint64 // total records ever: genesis base + appends
	sinceSync     int
	sinceSnapshot uint64
	encBuf        []byte // reused append encoding buffer

	appended    atomic.Uint64
	fsyncs      atomic.Uint64
	truncations atomic.Uint64
	size        atomic.Int64
}

// Metrics is a point-in-time reading of the log's counters.
type Metrics struct {
	Appended    uint64 // records appended this process lifetime
	Fsyncs      uint64 // explicit fsyncs issued
	Truncations uint64 // snapshot+truncate cycles completed
	Size        int64  // current log file size in bytes
}

// Open loads (or creates) the log in dir, recovering any existing
// state. Torn tails are truncated in place; corruption and config
// mismatches refuse with an error rather than load wrong state.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if opts.Name == "" {
		return nil, nil, fmt.Errorf("wal: options must name the placer")
	}
	if opts.SyncEvery < 0 {
		return nil, nil, fmt.Errorf("wal: sync every %d appends: want 0 or more", opts.SyncEvery)
	}
	if err := mkdirDurable(dir); err != nil {
		return nil, nil, err
	}
	// Leftover transient files are uncommitted snapshot attempts.
	for _, stray := range []string{snapTmpName, logNewName} {
		if err := os.Remove(filepath.Join(dir, stray)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}

	rec := &Recovered{}
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		if snap.ConfigDigest != opts.ConfigDigest {
			return nil, nil, &ConfigMismatchError{File: snapName, Got: snap.ConfigDigest, Want: opts.ConfigDigest}
		}
		if snap.Name != opts.Name {
			return nil, nil, &CorruptionError{File: snapName,
				Reason: fmt.Sprintf("snapshot is for placer %q, want %q", snap.Name, opts.Name)}
		}
		rec.Snapshot = snap
	}

	l := &Log{dir: dir, opts: opts}
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if snap != nil {
			// The truncation protocol renames the new log before the
			// old one could ever disappear; a snapshot without a log
			// means the log was deleted out from under us.
			return nil, nil, &CorruptionError{File: logName, Reason: "snapshot present but log missing"}
		}
		if err := l.createLog(Genesis{Base: 0, ConfigDigest: opts.ConfigDigest, Name: opts.Name}); err != nil {
			return nil, nil, err
		}
		return l, rec, nil
	case err != nil:
		return nil, nil, fmt.Errorf("wal: %w", err)
	}

	scan, err := ScanLog(logName, data)
	if err != nil {
		return nil, nil, err
	}
	if scan.TornOffset >= 0 {
		rec.TornBytes = int64(len(data)) - scan.TornOffset
	}
	if scan.Genesis == nil {
		// The tail tore before a complete genesis: the crash happened
		// during file creation, so no decision can have been logged.
		// With a snapshot present that story is impossible — refuse.
		if snap != nil {
			return nil, nil, &CorruptionError{File: logName, Reason: "snapshot present but log has no genesis"}
		}
		if err := os.Remove(logPath); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		if err := l.createLog(Genesis{Base: 0, ConfigDigest: opts.ConfigDigest, Name: opts.Name}); err != nil {
			return nil, nil, err
		}
		return l, rec, nil
	}

	g := scan.Genesis
	if g.ConfigDigest != opts.ConfigDigest {
		return nil, nil, &ConfigMismatchError{File: logName, Got: g.ConfigDigest, Want: opts.ConfigDigest}
	}
	if g.Name != opts.Name {
		return nil, nil, &CorruptionError{File: logName,
			Reason: fmt.Sprintf("log is for placer %q, want %q", g.Name, opts.Name)}
	}

	// Reconcile snapshot coverage with the log's base. The snapshot is
	// committed before the log is truncated, so the snapshot may cover
	// records the (old) log still holds — skip them — but a log base
	// beyond the snapshot means the snapshot file was lost.
	var snapRecords uint64
	if snap != nil {
		snapRecords = snap.Records
	}
	if g.Base > snapRecords {
		return nil, nil, &CorruptionError{File: logName,
			Reason: fmt.Sprintf("log starts at record %d but snapshot covers only %d", g.Base, snapRecords)}
	}
	skip := snapRecords - g.Base
	if skip > uint64(len(scan.Records)) {
		return nil, nil, &CorruptionError{File: snapName,
			Reason: fmt.Sprintf("snapshot covers %d records but log ends at %d",
				snapRecords, g.Base+uint64(len(scan.Records)))}
	}
	rec.Tail = scan.Records[skip:]
	l.records = g.Base + uint64(len(scan.Records))
	l.sinceSnapshot = l.records - snapRecords

	f, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	keep := int64(len(data))
	if scan.TornOffset >= 0 {
		keep = scan.TornOffset
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.fsyncs.Add(1)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size.Store(keep)
	return l, rec, nil
}

// createLog writes a fresh log file containing only the genesis and
// syncs it (and the directory) so the file survives a crash.
func (l *Log) createLog(g Genesis) error {
	buf := appendFrame(logMagic[:len(logMagic):len(logMagic)], appendGenesisPayload(nil, g))
	path := filepath.Join(l.dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.fsyncs.Add(1)
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.records = g.Base
	l.sinceSnapshot = 0
	l.size.Store(int64(len(buf)))
	return nil
}

// Close syncs and closes the log file.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Metrics returns a point-in-time reading of the log's counters; safe
// to call concurrently with appends.
func (l *Log) Metrics() Metrics {
	return Metrics{
		Appended:    l.appended.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Truncations: l.truncations.Load(),
		Size:        l.size.Load(),
	}
}

// AppendDecision durably logs one placement decision. The record is on
// disk (modulo SyncEvery batching) when the call returns.
func (l *Log) AppendDecision(d DecisionRecord) error {
	payload := appendDecisionPayload(l.encBuf[:0], d)
	l.encBuf = payload[:0]
	frame := appendFrame(payload[len(payload):], payload)
	n, err := l.f.Write(frame)
	l.size.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.records++
	l.sinceSnapshot++
	l.appended.Add(1)
	l.sinceSync++
	if l.opts.SyncEvery > 0 && l.sinceSync >= l.opts.SyncEvery {
		return l.Sync()
	}
	return nil
}

// Sync forces any batched appends to disk.
func (l *Log) Sync() error {
	if l.sinceSync == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.sinceSync = 0
	l.fsyncs.Add(1)
	return nil
}

// SnapshotDue reports whether the snapshot cadence has elapsed.
func (l *Log) SnapshotDue() bool {
	return l.opts.SnapshotEvery > 0 && l.sinceSnapshot >= l.opts.SnapshotEvery
}

// WriteSnapshot commits a checkpoint and truncates the log, bounding
// future recovery to the records appended after this call. The caller
// fills PlacerState and the serving counters; Records, ConfigDigest
// and Name are stamped here. Commit order makes every crash window
// recoverable: the snapshot is fsynced and renamed into place first,
// then a fresh log (genesis Base = Records) atomically replaces the
// old one — a crash between the renames leaves a snapshot that covers
// a prefix of the old log, which Open skips.
func (l *Log) WriteSnapshot(s *Snapshot) error {
	if err := l.Sync(); err != nil {
		return err
	}
	s.ConfigDigest = l.opts.ConfigDigest
	s.Name = l.opts.Name
	s.Records = l.records

	if err := commitFile(l.dir, snapTmpName, snapName, encodeSnapshot(s)); err != nil {
		return err
	}
	l.fsyncs.Add(1)

	g := Genesis{Base: l.records, ConfigDigest: l.opts.ConfigDigest, Name: l.opts.Name}
	newLog := appendFrame(logMagic[:len(logMagic):len(logMagic)], appendGenesisPayload(nil, g))
	if err := commitFile(l.dir, logNewName, logName, newLog); err != nil {
		return err
	}
	l.fsyncs.Add(1)

	// The rename replaced the file under our descriptor; reopen.
	old := l.f
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen after truncation: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	old.Close()
	l.sinceSnapshot = 0
	l.sinceSync = 0
	l.truncations.Add(1)
	l.size.Store(int64(len(newLog)))
	return nil
}

// commitFile atomically replaces dir/final with content via a synced
// temporary file and rename, then syncs the directory.
func commitFile(dir, tmp, final string, content []byte) error {
	tmpPath := filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, werr := f.Write(content)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: write %s: %w", tmp, werr)
	}
	if err := os.Rename(tmpPath, filepath.Join(dir, final)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

// mkdirDurable creates dir and any missing parents, as os.MkdirAll
// does, and fsyncs the parent of every directory it created, so each new
// entry survives a crash and not only the files later synced inside it.
func mkdirDurable(dir string) error {
	// Walk up to the first ancestor that already exists.
	var missing []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) {
			break
		}
		missing = append(missing, d)
		if filepath.Dir(d) == d {
			break
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		if err := syncDir(filepath.Dir(missing[i])); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the entries created in it durable.
// It is a variable so that tests can record which directories are
// synced.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// ---- snapshot file codec -----------------------------------------------

// encodeSnapshot renders the snapshot file image: magic, then one
// checksummed frame holding the whole snapshot payload.
func encodeSnapshot(s *Snapshot) []byte {
	p := []byte{recGenesis} // reuse the type byte slot; snapshots have one record kind
	p = binary.LittleEndian.AppendUint16(p, snapVersion)
	p = binary.LittleEndian.AppendUint64(p, s.ConfigDigest)
	p = binary.LittleEndian.AppendUint64(p, s.Records)
	p = binary.LittleEndian.AppendUint64(p, s.Requests)
	p = binary.LittleEndian.AppendUint64(p, s.Opened)
	p = binary.LittleEndian.AppendUint64(p, s.WalkBits)
	p = binary.LittleEndian.AppendUint64(p, s.SimBits)
	p = binary.LittleEndian.AppendUint64(p, s.StationsDigest)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Name)))
	p = append(p, s.Name...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.PlacerState)))
	p = append(p, s.PlacerState...)
	return appendFrame(snapMagic[:len(snapMagic):len(snapMagic)], p)
}

// readSnapshot loads dir/snapshot.bin; (nil, nil) when absent. The
// snapshot is committed by atomic rename, so any damage is corruption,
// never a torn write.
func readSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return decodeSnapshot(data)
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	corrupt := func(off int64, reason string) (*Snapshot, error) {
		return nil, &CorruptionError{File: snapName, Offset: off, Reason: reason}
	}
	if len(data) < len(snapMagic)+frameHeaderLen {
		return corrupt(0, "file too short")
	}
	if string(data[:len(snapMagic)]) != string(snapMagic) {
		return corrupt(0, "bad magic")
	}
	off := int64(len(snapMagic))
	length := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if off+frameHeaderLen+length != int64(len(data)) {
		return corrupt(off, "frame length does not match file size")
	}
	p := data[off+frameHeaderLen:]
	if crc32.ChecksumIEEE(p) != sum {
		return corrupt(off, "checksum mismatch")
	}
	const fixed = 1 + 2 + 7*8 + 4
	if len(p) < fixed || p[0] != recGenesis {
		return corrupt(off, "malformed snapshot payload")
	}
	if v := binary.LittleEndian.Uint16(p[1:]); v != snapVersion {
		return corrupt(off, fmt.Sprintf("snapshot version %d, want %d", v, snapVersion))
	}
	s := &Snapshot{
		ConfigDigest:   binary.LittleEndian.Uint64(p[3:]),
		Records:        binary.LittleEndian.Uint64(p[11:]),
		Requests:       binary.LittleEndian.Uint64(p[19:]),
		Opened:         binary.LittleEndian.Uint64(p[27:]),
		WalkBits:       binary.LittleEndian.Uint64(p[35:]),
		SimBits:        binary.LittleEndian.Uint64(p[43:]),
		StationsDigest: binary.LittleEndian.Uint64(p[51:]),
	}
	nameLen := int(binary.LittleEndian.Uint32(p[59:]))
	rest := p[fixed:]
	if nameLen > len(rest) {
		return corrupt(off, "snapshot name overruns payload")
	}
	s.Name = string(rest[:nameLen])
	rest = rest[nameLen:]
	if len(rest) < 4 {
		return corrupt(off, "snapshot state length missing")
	}
	stateLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if stateLen != len(rest) {
		return corrupt(off, "snapshot state length does not match payload")
	}
	s.PlacerState = append([]byte(nil), rest...)
	return s, nil
}
