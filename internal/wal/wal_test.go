package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geo"
)

func testOpts() Options {
	return Options{ConfigDigest: 0xdeadbeefcafe, Name: "e-sharing", SyncEvery: 1}
}

// testDecision derives a distinct, fully deterministic record from i.
func testDecision(i int) DecisionRecord {
	return DecisionRecord{
		Dest:         geo.Pt(float64(i)*3.25, float64(i)*-7.5),
		Station:      geo.Pt(float64(i%5)*100, float64(i%3)*100),
		StationIndex: i % 5,
		Opened:       i%4 == 0,
		Walk:         float64(i) * 1.125,
	}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, testOpts())
	if rec.Snapshot != nil || len(rec.Tail) != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := make([]DecisionRecord, 0, 10)
	for i := 0; i < 10; i++ {
		d := testDecision(i)
		if err := l.AppendDecision(d); err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	if got := l.records; got != 10 {
		t.Fatalf("records = %d, want 10", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := mustOpen(t, dir, testOpts())
	defer l2.Close()
	if rec2.TornBytes != 0 {
		t.Fatalf("clean shutdown reported %d torn bytes", rec2.TornBytes)
	}
	if !reflect.DeepEqual(rec2.Tail, want) {
		t.Fatalf("recovered tail %+v, want %+v", rec2.Tail, want)
	}
	if got := l2.records; got != 10 {
		t.Fatalf("reopened records = %d, want 10", got)
	}
	// The log must keep accepting appends after recovery.
	if err := l2.AppendDecision(testDecision(99)); err != nil {
		t.Fatal(err)
	}
}

// TestKillAtEveryByte is the recovery invariant: for a log truncated at
// every possible byte offset (a crash can stop a write anywhere),
// recovery either yields a strict prefix of the logged records — bit
// identical — or refuses; never wrong state, never a panic.
func TestKillAtEveryByte(t *testing.T) {
	src := t.TempDir()
	l, _ := mustOpen(t, src, testOpts())
	const K = 20
	want := make([]DecisionRecord, 0, K)
	for i := 0; i < K; i++ {
		d := testDecision(i)
		if err := l.AppendDecision(d); err != nil {
			t.Fatal(err)
		}
		want = append(want, d)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		t.Fatal(err)
	}

	prefixes := 0
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(dir, testOpts())
		if err != nil {
			// Refusal is allowed only as a corruption verdict, and a
			// pure truncation must never produce one.
			t.Fatalf("cut %d: clean truncation refused: %v", cut, err)
		}
		n := len(rec.Tail)
		if n > K {
			t.Fatalf("cut %d: recovered %d records from a log of %d", cut, n, K)
		}
		if n > 0 && !reflect.DeepEqual(rec.Tail, want[:n]) {
			t.Fatalf("cut %d: recovered tail is not a prefix", cut)
		}
		if n == K && rec.TornBytes != 0 {
			t.Fatalf("cut %d: full recovery but %d torn bytes", cut, rec.TornBytes)
		}
		// Recovery must leave an appendable log: the next decision
		// lands at record n+... and survives another reopen.
		if err := l2.AppendDecision(testDecision(1000 + cut)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		l3, rec3, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut %d: reopen after repair: %v", cut, err)
		}
		if len(rec3.Tail) != n+1 {
			t.Fatalf("cut %d: post-repair log has %d records, want %d", cut, len(rec3.Tail), n+1)
		}
		l3.Close()
		if n == K {
			prefixes++
		}
	}
	if prefixes == 0 {
		t.Fatal("no cut recovered the full log (final boundary must)")
	}
}

// TestMidFileDamageRefuses: a checksum failure that is not the last
// frame cannot be a torn write, so Open must refuse.
func TestMidFileDamageRefuses(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, testOpts())
	for i := 0; i < 10; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(off int) {
		t.Helper()
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Magic damage and mid-file payload damage are corruption.
	for _, off := range []int{0, len(full) / 2} {
		flip(off)
		_, _, err := Open(dir, testOpts())
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want CorruptionError", off, err)
		}
	}

	// A frame that checksums clean but carries the retired pickup type
	// byte ('P', 9 bytes) is corruption too: the log holds a genesis and
	// decisions only, and a record replay cannot apply must refuse
	// rather than be skipped.
	pickup := appendFrame(nil, []byte{'P', 2, 0, 0, 0, 0, 0, 0, 0})
	genesis := Genesis{ConfigDigest: testOpts().ConfigDigest, Name: testOpts().Name}
	afterGenesis := len(logMagic) + frameHeaderLen + len(appendGenesisPayload(nil, genesis))
	for _, at := range []int{afterGenesis, len(full)} {
		mut := append(append(append([]byte(nil), full[:at]...), pickup...), full[at:]...)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir, testOpts())
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Offset != int64(at) {
			t.Fatalf("pickup frame at %d: err = %v, want CorruptionError there", at, err)
		}
	}

	// Damage inside the final frame is indistinguishable from a torn
	// write: recovery drops that frame and keeps the prefix.
	flip(len(full) - 3)
	l2, rec, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("tail damage refused: %v", err)
	}
	defer l2.Close()
	if len(rec.Tail) != 9 || rec.TornBytes == 0 {
		t.Fatalf("tail damage recovered %d records, %d torn bytes; want 9 records",
			len(rec.Tail), rec.TornBytes)
	}
}

func TestConfigMismatchRefuses(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, testOpts())
	if err := l.AppendDecision(testDecision(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.ConfigDigest++
	_, _, err := Open(dir, opts)
	var cm *ConfigMismatchError
	if !errors.As(err, &cm) {
		t.Fatalf("err = %v, want ConfigMismatchError", err)
	}
	// A renamed placer under the same digest is also refused.
	opts = testOpts()
	opts.Name = "meyerson"
	if _, _, err := Open(dir, opts); err == nil {
		t.Fatal("placer name mismatch accepted")
	}
}

func TestSnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, testOpts())
	for i := 0; i < 10; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := l.Metrics().Size
	snap := &Snapshot{
		PlacerState: []byte("placer-state-bytes"),
		Requests:    10, Opened: 3, WalkBits: 0x4045000000000000, SimBits: 0x4059000000000000,
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if snap.Records != 10 {
		t.Fatalf("snapshot stamped Records=%d, want 10", snap.Records)
	}
	if m := l.Metrics(); m.Truncations != 1 || m.Size >= sizeBefore {
		t.Fatalf("after snapshot: truncations=%d size=%d (before %d)", m.Truncations, m.Size, sizeBefore)
	}
	tail := []DecisionRecord{testDecision(100), testDecision(101)}
	for _, d := range tail {
		if err := l.AppendDecision(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, testOpts())
	defer l2.Close()
	if rec.Snapshot == nil {
		t.Fatal("snapshot not recovered")
	}
	s := rec.Snapshot
	if s.Records != 10 || string(s.PlacerState) != "placer-state-bytes" ||
		s.Requests != 10 || s.Opened != 3 ||
		s.WalkBits != snap.WalkBits || s.SimBits != snap.SimBits {
		t.Fatalf("recovered snapshot %+v", s)
	}
	if !reflect.DeepEqual(rec.Tail, tail) {
		t.Fatalf("recovered tail %+v, want %+v", rec.Tail, tail)
	}
	if got := l2.records; got != 12 {
		t.Fatalf("records = %d, want 12", got)
	}
}

// TestSnapshotCrashWindows exercises every interruption point of the
// snapshot protocol by reconstructing the on-disk states it can leave.
func TestSnapshotCrashWindows(t *testing.T) {
	// Build a reference dir: 8 records, snapshot at 5, 3 in the tail.
	ref := t.TempDir()
	l, _ := mustOpen(t, ref, testOpts())
	for i := 0; i < 5; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	preSnapLog, err := os.ReadFile(filepath.Join(ref, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&Snapshot{PlacerState: []byte("s"), Requests: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(ref, snapName))
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, dir, name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("snapshot committed, log not yet truncated", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, logName, preSnapLog) // old log still covers records 0..4
		write(t, dir, snapName, snapBytes) // new snapshot covers 5
		l2, rec := mustOpen(t, dir, testOpts())
		defer l2.Close()
		if rec.Snapshot == nil || rec.Snapshot.Records != 5 {
			t.Fatalf("snapshot not honoured: %+v", rec.Snapshot)
		}
		if len(rec.Tail) != 0 {
			t.Fatalf("covered records replayed: %+v", rec.Tail)
		}
		if got := l2.records; got != 5 {
			t.Fatalf("records = %d, want 5", got)
		}
	})

	t.Run("stray tmp files from a crashed snapshot are discarded", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, logName, preSnapLog)
		write(t, dir, snapTmpName, []byte("half-written"))
		write(t, dir, logNewName, []byte("half-written"))
		l2, rec := mustOpen(t, dir, testOpts())
		defer l2.Close()
		if rec.Snapshot != nil || len(rec.Tail) != 5 {
			t.Fatalf("recovered %+v", rec)
		}
		for _, stray := range []string{snapTmpName, logNewName} {
			if _, err := os.Stat(filepath.Join(dir, stray)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s not cleaned up", stray)
			}
		}
	})

	t.Run("snapshot deleted out from under a truncated log", func(t *testing.T) {
		dir := t.TempDir()
		full, err := os.ReadFile(filepath.Join(ref, logName))
		if err != nil {
			t.Fatal(err)
		}
		write(t, dir, logName, full) // genesis base 5, no snapshot
		_, _, err = Open(dir, testOpts())
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptionError", err)
		}
	})

	t.Run("log deleted out from under a snapshot", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, snapName, snapBytes)
		_, _, err := Open(dir, testOpts())
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptionError", err)
		}
	})

	t.Run("damaged snapshot refuses", func(t *testing.T) {
		dir := t.TempDir()
		full, err := os.ReadFile(filepath.Join(ref, logName))
		if err != nil {
			t.Fatal(err)
		}
		write(t, dir, logName, full)
		mut := append([]byte(nil), snapBytes...)
		mut[len(mut)/2] ^= 0x10
		write(t, dir, snapName, mut)
		_, _, err = Open(dir, testOpts())
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptionError", err)
		}
	})
}

func TestSyncBatching(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SyncEvery = 4
	l, _ := mustOpen(t, dir, opts)
	defer l.Close()
	base := l.Metrics().Fsyncs
	for i := 0; i < 8; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Metrics().Fsyncs - base; got != 2 {
		t.Fatalf("8 appends at SyncEvery=4 issued %d fsyncs, want 2", got)
	}
	if err := l.AppendDecision(testDecision(8)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Metrics().Fsyncs - base; got != 3 {
		t.Fatalf("explicit Sync did not flush: %d fsyncs, want 3", got)
	}
	// Sync with nothing pending is a no-op.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Metrics().Fsyncs - base; got != 3 {
		t.Fatalf("empty Sync issued an fsync")
	}
	if got := l.Metrics().Appended; got != 9 {
		t.Fatalf("Appended = %d, want 9", got)
	}
}

// TestFailedWriteLatches: a write that fails may leave part of a frame
// behind, and a later append that lands after it makes the log refuse to
// open. So the log latches its first error: every later append, sync and
// snapshot returns it and writes nothing, and a restart recovers the
// records before the failure and discards the torn tail.
func TestFailedWriteLatches(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, testOpts())
	want := []DecisionRecord{testDecision(0), testDecision(1), testDecision(2)}
	for _, d := range want {
		if err := l.AppendDecision(d); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, logName)
	rw := l.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if err := l.AppendDecision(testDecision(3)); err == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	ro.Close()
	// What a short write leaves behind: half of the next frame.
	frame := appendFrame(nil, appendDecisionPayload(nil, testDecision(3)))
	if _, err := rw.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	l.f = rw
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDecision(testDecision(4)); err == nil {
		t.Error("append after a failed append succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync after a failed append succeeded")
	}
	if err := l.WriteSnapshot(&Snapshot{}); err == nil {
		t.Error("snapshot after a failed append succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Errorf("the log changed after the failure (%d bytes, was %d; %v)", len(after), len(before), err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a snapshot was written after the failure: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, testOpts())
	defer l2.Close()
	if !reflect.DeepEqual(rec.Tail, want) || rec.TornBytes == 0 {
		t.Fatalf("recovered %d records with %d torn bytes, want %d records and a torn tail",
			len(rec.Tail), rec.TornBytes, len(want))
	}
}

// TestFailedSyncLatches: after a failed fsync the kernel may have
// dropped the dirty pages, so a later sync that succeeds would not cover
// them. The log refuses every later append and sync.
func TestFailedSyncLatches(t *testing.T) {
	opts := testOpts()
	opts.SyncEvery = 0
	l, _ := mustOpen(t, t.TempDir(), opts)
	if err := l.AppendDecision(testDecision(0)); err != nil {
		t.Fatal(err)
	}
	f := l.f
	closed, err := os.Open(filepath.Join(l.dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	l.f = closed
	if err := l.Sync(); err == nil {
		t.Fatal("sync on a closed handle succeeded")
	}
	l.f = f
	if err := l.AppendDecision(testDecision(1)); err == nil {
		t.Error("append after a failed sync succeeded")
	}
	if err := l.Sync(); err == nil {
		t.Error("sync after a failed sync succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNegativeSyncRefused: a negative cadence would never sync, as 0
// does, so Open refuses it rather than silently dropping fsync.
func TestNegativeSyncRefused(t *testing.T) {
	opts := testOpts()
	opts.SyncEvery = -1
	l, _, err := Open(t.TempDir(), opts)
	if err == nil {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
		t.Fatal("Open accepted SyncEvery = -1")
	}
}

func TestSnapshotDueCadence(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SnapshotEvery = 3
	l, _ := mustOpen(t, dir, opts)
	defer l.Close()
	for i := 0; i < 2; i++ {
		if err := l.AppendDecision(testDecision(i)); err != nil {
			t.Fatal(err)
		}
		if l.SnapshotDue() {
			t.Fatalf("due after %d records", i+1)
		}
	}
	if err := l.AppendDecision(testDecision(2)); err != nil {
		t.Fatal(err)
	}
	if !l.SnapshotDue() {
		t.Fatal("not due after 3 records")
	}
	if err := l.WriteSnapshot(&Snapshot{PlacerState: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotDue() {
		t.Fatal("still due after snapshot")
	}
}

// TestOpenSyncsCreatedDirectories: a directory Open creates is an entry
// in its parent, durable only once the parent is fsynced. Opening two
// shard logs under a fresh root must sync the parent of every directory
// created (the temp dir for the root, the root for each shard) and the
// shard directory itself for its new log file, and nothing above the
// first ancestor that already existed.
func TestOpenSyncsCreatedDirectories(t *testing.T) {
	base := t.TempDir()
	var synced []string
	prev := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return prev(dir)
	}
	t.Cleanup(func() { syncDir = prev })

	root := filepath.Join(base, "wal")
	for i, want := range [][]string{
		{base, root, filepath.Join(root, "shard-000")},
		{root, filepath.Join(root, "shard-001")},
	} {
		synced = nil
		l, _ := mustOpen(t, filepath.Join(root, fmt.Sprintf("shard-%03d", i)), testOpts())
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(synced, want) {
			t.Fatalf("shard %d: synced %q, want %q", i, synced, want)
		}
	}
}
