package dataset

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/parallel"
)

// TestIngestBoundedMemory is the Mobike-scale acceptance check for the
// server's CSV start-up path: a multi-million-row CSV goes through
// ReadEndPoints and AggregateHistory without ever materialising a
// []Trip or a point per row. Everything allocated must fit
// TestLoadHistoryMemoryBound's formula: one scanner term for the single
// pass (a ChunkSize buffer per ring slot, Workers+1 of them, slot 0's
// reused from the header), a bounded number of bytes per distinct end
// cell for each slot's fold into places and for their merge, each
// slot's start and end cell tables (under max(12 KiB, 64 B per cell)
// each; the fixture's starts and ends share its 1,600 cells), and slack
// for the demand grid. The row count defaults to 2M so plain
// `go test ./...` stays fast; set ESHARING_INGEST_ROWS=10000000 for the
// 10M-row run.
func TestIngestBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-row fixture; skipped with -short")
	}
	rows := 2_000_000
	if s := os.Getenv("ESHARING_INGEST_ROWS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad ESHARING_INGEST_ROWS=%q", s)
		}
		rows = n
	}
	path := filepath.Join(t.TempDir(), "big.csv")
	writeBigFixture(t, path, rows)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ends, err := ReadEndPoints(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if ends.Total() != rows {
		t.Fatalf("read %d end points, want %d", ends.Total(), rows)
	}
	demands, err := core.AggregateHistory(ends, 100)
	if err != nil {
		t.Fatal(err)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if len(demands) == 0 {
		t.Fatal("empty demand grid")
	}
	var arrivals float64
	for _, d := range demands {
		arrivals += d.Arrivals
	}
	if arrivals != float64(rows) {
		t.Fatalf("demand grid holds %.0f arrivals, want %d", arrivals, rows)
	}

	const (
		chunkSize = 512 << 10 // the ScanOptions default
		perPlace  = 256       // per fold: index, places, counts and sort scratch
		slack     = 4 << 20   // the demand grid and file state
	)
	slots := ScanOptions{Workers: parallel.Default()}.slots()
	perPass := slots * chunkSize
	tables := slots * 2 * max(12<<10, 64*ends.Len())
	bound := uint64(perPlace*ends.Len()*(slots+1) + tables + perPass + slack)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("rows=%d places=%d demandCells=%d: allocated %.1f MiB (%.1f B/row), bound %.1f MiB",
		rows, ends.Len(), len(demands), float64(got)/(1<<20), float64(got)/float64(rows), float64(bound)/(1<<20))
	if got > bound {
		t.Errorf("ReadEndPoints + AggregateHistory allocated %d B for %d rows, bound %d B", got, rows, bound)
	}
}

// writeBigFixture streams a synthetic Mobike CSV of the given row count
// to disk, varying trips over a grid of real geohashes around Beijing
// without holding more than one record in memory.
func writeBigFixture(t *testing.T, path string, rows int) {
	t.Helper()
	const side = 40
	hashes := make([]string, 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			h, err := geo.EncodeGeohash(geo.LatLng{
				Lat: 39.8 + 0.005*float64(i),
				Lng: 116.3 + 0.005*float64(j),
			}, 7)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, h)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := NewCSVWriter(bw)
	if err := cw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 5, 10, 0, 0, 0, 0, time.UTC)
	trip := make([]Trip, 1)
	for i := 0; i < rows; i++ {
		trip[0] = Trip{
			OrderID:      int64(i + 1),
			UserID:       int64(i%100_000 + 1),
			BikeID:       int64(i%50_000 + 1),
			BikeType:     1 + i%2,
			StartTime:    base.Add(time.Duration(i%86_400) * time.Second),
			StartGeohash: hashes[i%len(hashes)],
			EndGeohash:   hashes[(i*7+3)%len(hashes)],
		}
		if err := cw.WriteTrips(trip); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fixture: %d rows, %d MiB", rows, info.Size()>>20)
}
