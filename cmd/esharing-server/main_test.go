package main

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/server"
)

func testHistory(t *testing.T) []dataset.Trip {
	t.Helper()
	trips, err := dataset.Generate(dataset.Config{
		Days: 2, TripsWeekday: 150, TripsWeekend: 100, Bikes: 30, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trips
}

// testEnds is testHistory reduced to the destination places buildPlacer
// and buildPlacers consume.
func testEnds(t *testing.T) geo.Multiset {
	t.Helper()
	return geo.FoldPoints(dataset.EndPoints(testHistory(t)))
}

// TestBuildPlacer: the server's placer is Algorithm 2, and its config
// digest — what a decision log is keyed by — is a function of the
// construction inputs alone.
func TestBuildPlacer(t *testing.T) {
	history := testEnds(t)
	placer, err := buildPlacer(history, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if placer.Name() != "e-sharing" {
		t.Errorf("placer %q, want e-sharing", placer.Name())
	}
	again, err := buildPlacer(history, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.ConfigDigest() != placer.ConfigDigest() {
		t.Error("identical inputs built placers with different config digests")
	}
	reseeded, err := buildPlacer(history, 10000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.ConfigDigest() == placer.ConfigDigest() {
		t.Error("config digest insensitive to the seed")
	}
}

func TestBuildPlacerESharingHasLandmarks(t *testing.T) {
	history := testEnds(t)
	placer, err := buildPlacer(history, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(placer.Stations()) == 0 {
		t.Error("e-sharing placer should start with offline landmarks")
	}
}

func TestLoadHistorySynthetic(t *testing.T) {
	ends, err := loadHistory("", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ends.Len() == 0 {
		t.Error("no synthetic destinations")
	}
}

// writeTripsCSV writes trips in the Mobike schema to a temp file and
// returns its path.
func writeTripsCSV(t *testing.T, trips []dataset.Trip) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trips.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, trips); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// nycTrips is a small New York history, far from the Beijing origin of
// the synthetic generator.
func nycTrips(t *testing.T) []dataset.Trip {
	t.Helper()
	nyc := geo.LatLng{Lat: 40.7128, Lng: -74.0060}
	var trips []dataset.Trip
	for i := 0; i < 30; i++ {
		d := 0.002 * float64(i%5) // spread trips over a few hundred metres
		start, err := geo.EncodeGeohash(geo.LatLng{Lat: nyc.Lat + d, Lng: nyc.Lng - d}, 7)
		if err != nil {
			t.Fatal(err)
		}
		end, err := geo.EncodeGeohash(geo.LatLng{Lat: nyc.Lat - d, Lng: nyc.Lng + d}, 7)
		if err != nil {
			t.Fatal(err)
		}
		trips = append(trips, dataset.Trip{
			OrderID: int64(i + 1), UserID: 1, BikeID: 1,
			StartTime:    time.Date(2017, 5, 10, 8, 0, i, 0, time.UTC),
			StartGeohash: start, EndGeohash: end,
		})
	}
	return trips
}

func TestLoadHistoryCSV(t *testing.T) {
	trips := testHistory(t)[:40]
	got, err := loadHistory(writeTripsCSV(t, trips), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != len(trips) {
		t.Errorf("loaded %d destinations, want %d", got.Total(), len(trips))
	}
}

// TestLoadHistoryErrors covers the CSV loader's failure modes. A history
// whose geohashes are all empty has no projection centre and fails with
// dataset.ErrNoGeohashes instead of falling back to a default city.
//
// The one-pass loader must report exactly what the two-pass loader it
// replaced did (a summary pass skipping empty geohashes, then a
// projection pass requiring them): a malformed row or an invalid
// geohash fails at its own line even after an empty geohash, and an
// empty geohash is reported at its line only when nothing else failed.
func TestLoadHistoryErrors(t *testing.T) {
	dir := t.TempDir()
	hdr := "orderid,userid,bikeid,biketype,starttime,geohashed_start_loc,geohashed_end_loc\n"
	row := func(id int, start, end string) string {
		return fmt.Sprintf("%d,2,3,1,2017-05-10 08:00:00,%s,%s\n", id, start, end)
	}
	valid := func(id int) string { return row(id, "wx4g0bm", "wx4g0bn") }
	cases := []struct {
		name    string
		content string // "" leaves the file missing
		want    error
		text    string // exact error text, when set; a *dataset.RowError when it names a line
	}{
		{name: "missing file", want: fs.ErrNotExist},
		{name: "all empty geohashes", content: hdr + row(1, "", "") + row(2, "", ""), want: dataset.ErrNoGeohashes},
		{name: "bad header", content: "orderid,userid\n1,2\n", want: dataset.ErrBadHeader},
		{
			name:    "header extra column",
			content: strings.TrimSuffix(hdr, "\n") + ",extra\n" + valid(1),
			want:    dataset.ErrBadHeader,
			text:    "dataset: unexpected CSV header: 8 columns, want 7",
		},
		{
			name:    "header missing column",
			content: strings.TrimSuffix(hdr, ",geohashed_end_loc\n") + "\n" + valid(1),
			want:    dataset.ErrBadHeader,
			text:    "dataset: unexpected CSV header: 6 columns, want 7",
		},
		{
			name:    "empty end then invalid geohash",
			content: hdr + valid(1) + row(2, "wx4g0bm", "") + valid(3) + valid(4) + row(5, "wx4g0bm", "wx4I0bn"),
			want:    geo.ErrInvalidGeohash,
			text:    "line 6: end geohash: geo: invalid geohash: byte 'I' at 3",
		},
		{
			name:    "single empty start geohash",
			content: hdr + valid(1) + valid(2) + row(3, "", "wx4g0bn") + valid(4),
			want:    geo.ErrInvalidGeohash,
			text:    "line 4: start geohash: geo: invalid geohash",
		},
		{
			name:    "empty geohash then bad orderid",
			content: hdr + valid(1) + row(2, "wx4g0bm", "") + valid(3) + "x4,2,3,1,2017-05-10 08:00:00,wx4g0bm,wx4g0bn\n",
			text:    `line 5: orderid: strconv.ParseInt: parsing "x4": invalid syntax`,
		},
		{
			name:    "first empty geohash wins",
			content: hdr + valid(1) + row(2, "", "") + row(3, "wx4g0bm", ""),
			want:    geo.ErrInvalidGeohash,
			text:    "line 3: start geohash: geo: invalid geohash",
		},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("case%d.csv", i))
			if tc.content != "" {
				if err := os.WriteFile(path, []byte(tc.content), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			ends, err := loadHistory(path, 0, 0)
			if err == nil {
				t.Fatalf("loadHistory returned %d destinations, want an error", ends.Total())
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("loadHistory error %v, want %v", err, tc.want)
			}
			if tc.text != "" {
				var rowErr *dataset.RowError
				if errors.As(err, &rowErr) != strings.HasPrefix(tc.text, "line ") {
					t.Fatalf("loadHistory error %v: *dataset.RowError is %v", err, rowErr != nil)
				}
				if err.Error() != tc.text {
					t.Fatalf("loadHistory error %q, want %q", err, tc.text)
				}
			}
		})
	}

	// A header-only file is an empty history, not an error.
	path := filepath.Join(dir, "header-only.csv")
	if err := os.WriteFile(path, []byte(hdr), 0o600); err != nil {
		t.Fatal(err)
	}
	if ends, err := loadHistory(path, 0, 0); ends.Len() != 0 || err != nil {
		t.Fatalf("header-only CSV: loadHistory = %d places, %v; want none, nil", ends.Len(), err)
	}
}

// oracleEnds is the materialising pipeline the streaming loader
// replaced, read through encoding/csv independently of the scanner:
// every trip in memory, then GeohashCenter → ProjectTrips → EndPoints.
// Only the geohash columns feed the end points.
func oracleEnds(t *testing.T, path string) []geo.Point {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var trips []dataset.Trip
	for _, rec := range recs[1:] {
		trips = append(trips, dataset.Trip{StartGeohash: rec[5], EndGeohash: rec[6]})
	}
	center, err := dataset.GeohashCenter(trips)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.ProjectTrips(trips, geo.NewProjector(center)); err != nil {
		t.Fatal(err)
	}
	return dataset.EndPoints(trips)
}

// TestLoadHistoryMatchesOracle pins the one-pass streaming loader to the
// materialising pipeline bit for bit: both derive the projection centre
// from the same geohash bounding box and project the same ends, and the
// loader's places and counts are the fold of the oracle's rows. It pins
// the loader's bounding-box fold, its fold into places and its
// projection of each place. The geohash decode itself is not under test
// here: GeohashCenter and ProjectTrips go through the same production
// decoder, which the geo package's exhaustive and fuzz differentials
// pin to the bisection oracle.
func TestLoadHistoryMatchesOracle(t *testing.T) {
	for name, trips := range map[string][]dataset.Trip{
		"synthetic": testHistory(t),
		"nyc":       nycTrips(t),
	} {
		t.Run(name, func(t *testing.T) {
			path := writeTripsCSV(t, trips)
			want := geo.FoldPoints(oracleEnds(t, path))
			got, err := loadHistory(path, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() || got.Total() != len(trips) {
				t.Fatalf("loaded %d places (%d destinations), oracle %d places (%d destinations)",
					got.Len(), got.Total(), want.Len(), len(trips))
			}
			for i, w := range want.Points() {
				g := got.Points()[i]
				if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
					got.Counts()[i] != want.Counts()[i] {
					t.Fatalf("place %d: loaded %v ×%d, oracle %v ×%d", i, g, got.Counts()[i], w, want.Counts()[i])
				}
			}
		})
	}
}

// writeCityCSV streams a synthetic Mobike CSV of the given days to a
// temp file, without holding the trips, and returns its path and row
// count.
func writeCityCSV(t *testing.T, cfg dataset.Config) (string, int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "city.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := dataset.NewCSVWriter(f)
	if err := cw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := dataset.GenerateStream(cfg, func(_ int, trips []dataset.Trip) error {
		rows += len(trips)
		return cw.WriteTrips(trips)
	}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, rows
}

// loadAllocated loads the CSV at path and returns the history and the
// bytes allocated doing it.
func loadAllocated(t *testing.T, path string) (geo.Multiset, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := loadHistory(path, 0, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return h, after.TotalAlloc - before.TotalAlloc
}

// setScanWorkers pins the default worker count, the scanner's and the
// offline solve's, for one test.
func setScanWorkers(t *testing.T, workers int) {
	prev := parallel.Default()
	parallel.SetDefault(workers)
	t.Cleanup(func() { parallel.SetDefault(prev) })
}

// TestLoadHistoryMemoryBound states the startup memory bound of a CSV
// history and checks it. loadHistory may allocate one fixed scanner
// term for its single pass, a bounded number of bytes per distinct end
// cell for each fold into places (one per ring slot, reused across
// chunks, and their merge: an index, the places, their counts and the
// canonical sort's scratch, all grown by doubling), each slot's two cell
// tables, and slack — nothing that grows with the row count. A cell
// table maps a chunk's packed geohashes at 12 B a slot; it starts at
// 1,024 slots and doubles past 3/4 full. Its last generation of S > 1,024
// slots was made once 3S/8 cells were in, and all its generations
// together hold under 2S slots, so it allocates under max(12 KiB, 64 B
// per cell it holds). It holds at most
// the chunk's distinct start or end cells, which here come from the same
// cells as the end places. The scanner's ring holds a ChunkSize buffer
// per slot, Workers+1 of them, slot 0's being the one the header was
// read into; it builds no batch of parsed rows. The row-by-row loader
// this replaced presized a RawTrip batch of ChunkSize/32 slots per
// worker and allocated 12.6 MiB on a 5-day fixture. Keeping a point per row instead costs 16 B per row and
// breaks the bound; materialising every dataset.Trip costs ~780 B per
// row, and a second pass over the file a second scanner term.
func TestLoadHistoryMemoryBound(t *testing.T) {
	const (
		chunkSize = 512 << 10 // the ScanOptions default
		workers   = 2
		slots     = workers + 1 // the scanner's ring
		perPlace  = 256         // per fold: index, places, counts and sort scratch
		slack     = 1 << 20     // file state
	)
	cellTable := func(cells int) int { return max(12<<10, 64*cells) }
	setScanWorkers(t, workers)
	path, rows := writeCityCSV(t, dataset.Config{
		Days: 7, TripsWeekday: 20000, TripsWeekend: 20000, Bikes: 500, Seed: 21,
	})
	ends, got := loadAllocated(t, path)
	if ends.Total() != rows {
		t.Fatalf("loaded %d destinations, want %d", ends.Total(), rows)
	}
	perPass := slots * chunkSize
	tables := slots * 2 * cellTable(ends.Len())
	bound := uint64(perPlace*ends.Len()*(slots+1) + tables + perPass + slack)
	t.Logf("%d rows at %d places: allocated %.1f MiB (%.1f B/row), bound %.1f MiB",
		rows, ends.Len(), float64(got)/(1<<20), float64(got)/float64(rows), float64(bound)/(1<<20))
	if got > bound {
		t.Fatalf("loadHistory allocated %d B for %d rows at %d places, bound %d B", got, rows, ends.Len(), bound)
	}
	if 16*rows <= perPlace*ends.Len()*(slots+1)+tables+slack {
		t.Fatalf("fixture too small: a point per row (%d B) would fit the bound's slack", 16*rows)
	}
}

// TestLoadHistoryHeapFlatInRows loads two CSVs over the same few places,
// one with four times the rows of the other: the history is the same
// places with four times the counts, and the load allocates no more for
// the extra rows than a handful of scanner chunks would.
func TestLoadHistoryHeapFlatInRows(t *testing.T) {
	const (
		places = 6
		rows   = 48_000 // a multiple of places, so every count scales by 4
		growth = 64 << 10
	)
	setScanWorkers(t, 2)
	hdr := "orderid,userid,bikeid,biketype,starttime,geohashed_start_loc,geohashed_end_loc\n"
	ends := []string{"wx4g0bm", "wx4g0bn", "wx4g0bp", "wx4g0bq", "wx4g0br", "wx4g0bs"}
	write := func(name string, n int) string {
		var b []byte
		b = append(b, hdr...)
		for i := 0; i < n; i++ {
			b = fmt.Appendf(b, "%d,2,3,1,2017-05-10 08:00:00,wx4g0bt,%s\n", i+1, ends[i%places])
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	small, smallAlloc := loadAllocated(t, write("small.csv", rows))
	big, bigAlloc := loadAllocated(t, write("big.csv", 4*rows))
	if small.Len() != places || big.Len() != places {
		t.Fatalf("loaded %d and %d places, want %d", small.Len(), big.Len(), places)
	}
	for i, p := range small.Points() {
		if big.Points()[i] != p || big.Counts()[i] != 4*small.Counts()[i] {
			t.Fatalf("place %d: %v ×%d at 4× rows, %v ×%d at 1×", i, big.Points()[i], big.Counts()[i], p, small.Counts()[i])
		}
	}
	t.Logf("%d rows: %d B; %d rows: %d B", rows, smallAlloc, 4*rows, bigAlloc)
	if bigAlloc > smallAlloc+growth {
		t.Fatalf("%d more rows on the same %d places allocated %d B more, want at most %d B",
			3*rows, places, int64(bigAlloc)-int64(smallAlloc), growth)
	}
}

// TestStartupHistoryMatchesGenerate: the synthetic history folded a day
// at a time is bit for bit the fold of every generated trip's end point,
// so a config digest, and with it every decision log, is unchanged by
// streaming.
func TestStartupHistoryMatchesGenerate(t *testing.T) {
	for _, days := range []int{1, 7, 14} {
		for _, seed := range []uint64{1, 2, 42} {
			got, err := loadHistory("", days, seed)
			if err != nil {
				t.Fatal(err)
			}
			trips, err := dataset.Generate(dataset.Config{Days: days, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := geo.FoldPoints(dataset.EndPoints(trips))
			if got.Len() != want.Len() || got.Total() != want.Total() {
				t.Fatalf("days %d seed %d: %d places of %d trips, want %d of %d",
					days, seed, got.Len(), got.Total(), want.Len(), want.Total())
			}
			for i, w := range want.Points() {
				g := got.Points()[i]
				if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
					got.Counts()[i] != want.Counts()[i] {
					t.Fatalf("days %d seed %d place %d: %v ×%d, want %v ×%d",
						days, seed, i, g, got.Counts()[i], w, want.Counts()[i])
				}
			}
		}
	}
}

// TestStartupMemoryBound states the allocation bound of the server's
// default start-up, from the synthetic 7-day history to a 2-shard
// server with a decision log, and checks it. Each term:
//
//   - Per trip, 36 B: its end point, 16 B, in a slice presized from the
//     first day's trips times the days (under 1.25 times the total, as
//     a weekday opens the default calendar and weekends are lighter),
//     and the generator's two 7-byte geohash strings, 8 B each.
//   - Per place, 48 B: the fold's copy of the points and their counts
//     (16 + 8 B), and the shard split's exactly sized parts (16 + 8 B).
//   - Per demand cell of each shard's plan, 1 KiB: the offline solve,
//     pinned to 2 workers, allocates in proportion to its candidates,
//     ~740 B a cell here.
//   - One day of trips, which the generator reuses between days: 2,125
//     slots (the weekday mean of 2,000 plus 1/16) of dataset.Trip,
//     counted twice to allow one growth on a busy day.
//   - Slack for the fleet's positions, the day's sort, the placers, the
//     server and the log's files.
//
// The start-up that held the week as one []dataset.Trip, and drew
// every POI weight vector into a fresh slice, allocated 8.6 MiB for the
// history alone, over three times this bound.
func TestStartupMemoryBound(t *testing.T) {
	const (
		days     = 7
		seed     = 1
		shards   = 2
		prec     = 7
		perTrip  = 36
		perPlace = 48
		perCell  = 1 << 10
		dayTrips = 2000 * 17 / 16
		slack    = 256 << 10
	)
	setScanWorkers(t, 2)
	day := 2 * dayTrips * int(unsafe.Sizeof(dataset.Trip{}))
	dir := t.TempDir()
	var before, loaded, built, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	history, err := loadHistory("", days, seed)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&loaded)
	placers, err := buildPlacers(history, 10000, seed, shards, prec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	srv, err := server.NewSharded(placers, server.WithShardPrecision(prec), server.WithWAL(dir, 1, 4096))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cells := 0
	for s, part := range partitionByShard(history, prec, shards) {
		if part.Len() == 0 {
			t.Fatalf("shard %d planned from the whole history: the bound counts each place once", s)
		}
		demands, err := core.AggregateHistory(part, 100)
		if err != nil {
			t.Fatal(err)
		}
		cells += len(demands)
	}
	bound := uint64(perTrip*history.Total() + perPlace*history.Len() + perCell*cells + day + slack)
	got := after.TotalAlloc - before.TotalAlloc
	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d trips at %d places, %d demand cells: load %.2f MiB, placers %.2f MiB, server %.2f MiB; total %.2f MiB, bound %.2f MiB",
		history.Total(), history.Len(), cells, mib(loaded.TotalAlloc-before.TotalAlloc),
		mib(built.TotalAlloc-loaded.TotalAlloc), mib(after.TotalAlloc-built.TotalAlloc), mib(got), mib(bound))
	if got > bound {
		t.Fatalf("start-up allocated %d B for %d trips at %d places, bound %d B", got, history.Total(), history.Len(), bound)
	}
}

// TestLoadHistoryNonBeijingCSV is the regression test for the
// hard-coded projection centre: loadHistory used to project every CSV
// around Beijing, so a New York dataset landed ~11,000 km from the
// planar origin where the tangent-plane approximation is meaningless.
// The centre must now come from the data's own geohash bounding box,
// and the planned landmarks must sit inside the dataset's geography.
func TestLoadHistoryNonBeijingCSV(t *testing.T) {
	trips := nycTrips(t)
	history, err := loadHistory(writeTripsCSV(t, trips), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if history.Total() != len(trips) {
		t.Fatalf("loaded %d destinations, want %d", history.Total(), len(trips))
	}
	for i, p := range history.Points() {
		if !p.IsFinite() || math.Hypot(p.X, p.Y) > 50_000 {
			t.Fatalf("destination %d projects to %v: projection centre not derived from the data", i, p)
		}
	}
	// The offline plan must land inside the dataset's own geography.
	landmarks, err := planLandmarks(history, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(landmarks) == 0 {
		t.Fatal("no landmarks planned")
	}
	for _, lm := range landmarks {
		if math.Hypot(lm.X, lm.Y) > 50_000 {
			t.Errorf("landmark %v is outside the dataset's geography", lm)
		}
	}
}

func TestPlanLandmarks(t *testing.T) {
	history := testHistory(t)
	landmarks, err := planLandmarks(geo.FoldPoints(dataset.EndPoints(history)), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(landmarks) == 0 {
		t.Error("no landmarks planned")
	}
}

// TestStartupFromOneTripCSV is the regression test for the
// degenerate-bounding-box crash: a 1-row trip history has a zero-area
// bounding box, and planLandmarks used to hand it unpadded to
// geo.NewGrid, so the server died at startup. The whole startup path —
// CSV load, landmark planning, placer construction — must now succeed.
func TestStartupFromOneTripCSV(t *testing.T) {
	history, err := loadHistory(writeTripsCSV(t, testHistory(t)[:1]), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if history.Total() != 1 {
		t.Fatalf("loaded %d destinations, want 1", history.Total())
	}
	placer, err := buildPlacer(history, 10000, 1)
	if err != nil {
		t.Fatalf("startup from a 1-trip history must not crash: %v", err)
	}
	if len(placer.Stations()) == 0 {
		t.Error("one-trip history should still plan at least one landmark")
	}
}

// TestPlanLandmarksDegenerateHistories covers the single-point and
// collinear histories directly: both have a degenerate bounding box.
func TestPlanLandmarksDegenerateHistories(t *testing.T) {
	single := []geo.Point{geo.Pt(250, 400)}
	if _, err := planLandmarks(geo.FoldPoints(single), 10000); err != nil {
		t.Errorf("single destination: %v", err)
	}
	collinear := []geo.Point{geo.Pt(0, 100), geo.Pt(500, 100), geo.Pt(900, 100)}
	landmarks, err := planLandmarks(geo.FoldPoints(collinear), 10000)
	if err != nil {
		t.Fatalf("collinear destinations: %v", err)
	}
	if len(landmarks) == 0 {
		t.Error("collinear history should plan landmarks")
	}
}

// TestBuildPlacersSharded covers the shard partitioning of the offline
// plan: one placer per shard, history split by destination cell, the
// single-shard passthrough, and the empty-partition fallback (synthetic
// city-scale history fits inside one precision-4 cell, so most shards
// plan from the full history).
func TestBuildPlacersSharded(t *testing.T) {
	history := testEnds(t)

	one, err := buildPlacers(history, 10000, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("1-shard build returned %d placers", len(one))
	}

	// Precision 4 (~49 km cells): the whole synthetic city shares a cell,
	// so at least one partition is empty and must fall back to the full
	// history — every shard still gets a valid placer with landmarks.
	coarse, err := buildPlacers(history, 10000, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarse) != 4 {
		t.Fatalf("4-shard build returned %d placers", len(coarse))
	}
	for i, p := range coarse {
		if len(p.Stations()) == 0 {
			t.Errorf("shard %d planned no landmarks", i)
		}
	}

	// Precision 12 splits the city across cells: every trip must land in
	// exactly one shard's partition, mirroring geo.ShardOf.
	fine, err := buildPlacers(history, 10000, 1, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fine) != 2 {
		t.Fatalf("2-shard build returned %d placers", len(fine))
	}
	var want [2]int
	for _, end := range history.Points() {
		want[geo.ShardOf(end, 12, 2)]++
	}
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("precision-12 partition degenerate: %v", want)
	}
}

// appendPartition is the row-by-row shard partition, appending each
// point to its shard's growing slice. Folded part by part, it is the
// oracle for partitionByShard.
func appendPartition(history []geo.Point, precision, shards int) [][]geo.Point {
	parts := make([][]geo.Point, shards)
	for _, end := range history {
		i := geo.ShardOf(end, precision, shards)
		parts[i] = append(parts[i], end)
	}
	return parts
}

// TestBuildPlacersPartitionAlloc checks the cold-start shard partition
// of a history of places: each part is the fold of the rows that route
// to its shard, bit for bit (so a shard's history, and with it its
// config digest, does not depend on how the split is done), and the
// whole partition allocates in proportion to the places, not the rows.
func TestBuildPlacersPartitionAlloc(t *testing.T) {
	const (
		places = 20_000
		copies = 5
		shards = 4
		prec   = 6
		// Per place: its 16 B point and 8 B count, in parts sized
		// exactly by a first pass and allocated once.
		perPlace = 24
		slack    = 64 << 10
	)
	rng := rand.New(rand.NewPCG(5, 6))
	var rows []geo.Point
	for i := 0; i < places; i++ {
		p := geo.Pt(rng.Float64()*40_000-20_000, rng.Float64()*40_000-20_000)
		for c := 0; c <= i%copies; c++ {
			rows = append(rows, p)
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	history := geo.FoldPoints(rows)
	oracle := appendPartition(rows, prec, shards)
	for s, part := range oracle {
		if len(part) < len(rows)/(4*shards) {
			t.Fatalf("oracle shard %d holds %d of %d rows: the fixture does not spread", s, len(part), len(rows))
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got := partitionByShard(history, prec, shards)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	bound := uint64(perPlace*places + slack)
	t.Logf("%d rows at %d places over %d shards: allocated %d B (%.1f B/place), bound %d B",
		len(rows), places, shards, alloc, float64(alloc)/places, bound)
	if alloc > bound {
		t.Fatalf("partition allocated %d B for %d places, bound %d B", alloc, places, bound)
	}
	checkParts := func(got []geo.Multiset, oracle [][]geo.Point) {
		t.Helper()
		if len(got) != len(oracle) {
			t.Fatalf("%d parts, want %d", len(got), len(oracle))
		}
		for s := range oracle {
			want := geo.FoldPoints(oracle[s])
			if got[s].Len() != want.Len() {
				t.Fatalf("shard %d: %d places, oracle %d", s, got[s].Len(), want.Len())
			}
			for i, w := range want.Points() {
				g := got[s].Points()[i]
				if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
					got[s].Counts()[i] != want.Counts()[i] {
					t.Fatalf("shard %d place %d: %v ×%d, oracle %v ×%d", s, i, g, got[s].Counts()[i], w, want.Counts()[i])
				}
			}
		}
	}
	checkParts(got, oracle)
	// Many shards, most of them empty: the parts must not change.
	checkParts(partitionByShard(history, prec, 300), appendPartition(rows, prec, 300))
}

// TestRunRejectsShardsBelowOne: a shard count below 1 is refused at
// start-up with an error that names the flag. The unusable -addr makes
// a run that accepted the flag fail at listen rather than serve.
func TestRunRejectsShardsBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		err := run([]string{"-addr", "127.0.0.1:-1", "-history-days", "1", "-shards", n})
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Errorf("-shards %s: got %v, want an error naming -shards", n, err)
		}
	}
}

// TestRunRejectsOutOfRangeFlags: a flag value the server would
// otherwise run as something else is refused at start-up, before the
// history loads, with an error that names the flag. -wal-sync -1 would
// run without fsync, -max-inflight below 1 would keep the default
// budget, and a -shard-precision outside [1, 12] would be clamped.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-wal-sync", "-1"},
		{"-max-inflight", "0"},
		{"-max-inflight", "-3"},
		{"-shard-precision", "0"},
		{"-shard-precision", "13"},
		{"-shard-precision", "20"},
	} {
		err := run([]string{"-addr", "127.0.0.1:-1", "-history-days", "1", tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), tc.flag+" "+tc.value) {
			t.Errorf("%s %s: got %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
	// The range's ends are accepted: the run gets as far as listen.
	for _, tc := range []struct{ flag, value string }{
		{"-wal-sync", "0"},
		{"-max-inflight", "1"},
		{"-shard-precision", "1"},
		{"-shard-precision", "12"},
	} {
		err := run([]string{"-addr", "127.0.0.1:-1", "-history-days", "1", tc.flag, tc.value})
		if err == nil || strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s %s: got %v, want the listen error", tc.flag, tc.value, err)
		}
	}
}

// TestRunRejectsHistoryDaysBelowOne: a synthetic history shorter than a
// day is refused at start-up with an error that names the flag (the
// generator would otherwise substitute its default length).
func TestRunRejectsHistoryDaysBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		err := run([]string{"-addr", "127.0.0.1:-1", "-history-days", n})
		if err == nil || !strings.Contains(err.Error(), "-history-days") {
			t.Errorf("-history-days %s: got %v, want an error naming -history-days", n, err)
		}
	}
}
