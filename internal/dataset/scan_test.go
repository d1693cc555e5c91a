package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

// The differential matrix: every input is read by readEndPoints at
// several worker counts and chunk sizes (including sizes small enough to
// force chunk boundaries mid-record and mid-quoted-field), and each read
// is checked against the row-by-row fold and against encoding/csv by
// checkReadEndPoints.

var diffWorkers = []int{1, 2, 4, 7}
var diffChunks = []int{3, 7, 53, 1 << 12, 1 << 20}

func diffCodecs(t *testing.T, input string) {
	t.Helper()
	for _, workers := range diffWorkers {
		for _, chunk := range diffChunks {
			checkReadEndPoints(t, input, ScanOptions{ChunkSize: chunk, Workers: workers})
		}
	}
}

const goodRow = "1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n"

func TestStreamingMatchesReadCSVEdgeCases(t *testing.T) {
	hdr := strings.Join(csvHeader, ",")
	cases := map[string]string{
		"empty file":              "",
		"header only":             hdr + "\n",
		"header only no newline":  hdr,
		"header crlf only":        hdr + "\r\n",
		"one row":                 hdr + "\n" + goodRow,
		"no trailing newline":     hdr + "\n" + strings.TrimSuffix(goodRow, "\n"),
		"crlf endings":            hdr + "\r\n" + strings.ReplaceAll(goodRow, "\n", "\r\n") + "2,2,3,2,2017-05-11 09:00:00,wx4g0bm,wx4g0bn\r\n",
		"crlf no trailing":        hdr + "\r\n1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\r",
		"blank lines before hdr":  "\n\r\n" + hdr + "\n" + goodRow,
		"blank lines between":     hdr + "\n\n" + goodRow + "\r\n\n" + goodRow,
		"trailing blank lines":    hdr + "\n" + goodRow + "\n\n",
		"one digit hour":          hdr + "\n1,2,3,1,2017-05-10 8:30:00,wx4g0bm,wx4g0bn\n",
		"quoted geohash":          hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx4g0bm\",wx4g0bn\n",
		"quoted comma":            hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx,bad\",wx4g0bn\n",
		"quoted newline":          hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx\n4\",wx4g0bn\n",
		"quoted crlf":             hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx\r\n4\",wx4g0bn\n",
		"quoted escaped quote":    hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx\"\"4\",wx4g0bn\n",
		"quoted header":           "\"orderid\"," + strings.Join(csvHeader[1:], ",") + "\n" + goodRow,
		"lone cr in field":        hdr + "\n1,2,3,1,2017-05-10 08:30:00,wx\r4,wx4g0bn\n",
		"trailing cr at eof":      hdr + "\n" + strings.TrimSuffix(goodRow, "\n") + "\r",
		"two crs":                 hdr + "\n" + strings.TrimSuffix(goodRow, "\n") + "\r\r\n",
		"two crs declined row":    hdr + "\n+1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\r\r\n",
		"two crs at eof":          hdr + "\n+1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\r\r",
		"two crs header":          hdr + "\r\r\n" + goodRow,
		"cr line":                 hdr + "\n\r\n" + goodRow + "\r",
		"two crs line":            hdr + "\n\r\r\n" + goodRow,
		"wrong field count":       hdr + "\n1,2,3\n",
		"too many fields":         hdr + "\n" + strings.TrimSuffix(goodRow, "\n") + ",extra\n",
		"bad int":                 hdr + "\n1,2,x,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"int overflow":            hdr + "\n99999999999999999999,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"negative ids":            hdr + "\n-1,-2,-3,-1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"plus sign ids":           hdr + "\n+1,+2,+3,+1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"bad time feb30":          hdr + "\n1,2,3,1,2017-02-30 08:30:00,wx4g0bm,wx4g0bn\n",
		"bad time month13":        hdr + "\n1,2,3,1,2017-13-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"bad time short":          hdr + "\n1,2,3,1,2017-05-10 08:30,wx4g0bm,wx4g0bn\n",
		"bad time trailing":       hdr + "\n1,2,3,1,2017-05-10 08:30:00x,wx4g0bm,wx4g0bn\n",
		"leap day ok":             hdr + "\n1,2,3,1,2016-02-29 23:59:59,wx4g0bm,wx4g0bn\n",
		"two spaces before time":  hdr + "\n1,2,3,1,2017-05-10  8:30:00,wx4g0bm,wx4g0bn\n",
		"fractional second":       hdr + "\n1,2,3,1,2017-05-10 08:30:00.25,wx4g0bm,wx4g0bn\n",
		"bad geohash":             hdr + "\n1,2,3,1,2017-05-10 08:30:00,IIII,wx4g0bn\n",
		"empty geohash":           hdr + "\n1,2,3,1,2017-05-10 08:30:00,,wx4g0bn\n",
		"bare quote":              hdr + "\n1,2,3,1,2017-05-10 08:30:00,wx\"4,wx4g0bn\n",
		"unterminated quote":      hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx4,wx4g0bn\n",
		"quote then junk":         hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx4\"j,wx4g0bn\n",
		"bad header":              "orderid,userid\n" + goodRow,
		"wrong header name":       "orderidx," + strings.Join(csvHeader[1:], ",") + "\n" + goodRow,
		"header extra column":     hdr + ",extra\n" + goodRow,
		"garbage":                 "\x00\xff\xfe,,,\"\n\r",
		"many rows tiny chunks":   hdr + "\n" + strings.Repeat(goodRow, 40),
		"error after many rows":   hdr + "\n" + strings.Repeat(goodRow, 17) + "bad,row\n",
		"blank then error":        hdr + "\n\n\nbad,row\n",
		"space padded fields":     hdr + "\n 1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"empty last field":        hdr + "\n1,2,3,1,2017-05-10 08:30:00,wx4g0bm,\n",
		"quoted row then normal":  hdr + "\n1,2,3,1,2017-05-10 08:30:00,\"wx4g0bm\",wx4g0bn\n" + goodRow,
		"min int64":               hdr + "\n-9223372036854775808,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"int64 overflow by one":   hdr + "\n9223372036854775808,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
		"underscore int rejected": hdr + "\n1_0,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) { diffCodecs(t, input) })
	}
}

func TestStreamingMatchesReadCSVGenerated(t *testing.T) {
	trips, err := Generate(Config{Days: 3, Seed: 11, TripsWeekday: 120, TripsWeekend: 80, Bikes: 40})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, trips); err != nil {
		t.Fatal(err)
	}
	diffCodecs(t, sb.String())
}

// TestReadCSVErrorLineNumbers: ReadCSV and readEndPoints must report the
// 1-based file line of a broken record, with the header on line 1, even
// after blank lines. A multi-line quoted row is always broken for
// readEndPoints, whose geohashes hold no newline, so it fails at its
// own line.
func TestReadCSVErrorLineNumbers(t *testing.T) {
	hdr := strings.Join(csvHeader, ",")
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"first data row", hdr + "\nbad,row\n", 2},
		{"after good row", hdr + "\n" + goodRow + "1,2,x,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n", 3},
		{"after blank lines", hdr + "\n\n\n" + goodRow + "\nbad,row\n", 6},
		{"multiline quoted", hdr + "\n" + goodRow + "1,2,3,1,2017-05-10 08:30:00,\"wx\n4\",wx4g0bn\nbad,row\n", 3},
		{"bad time row", hdr + "\n" + goodRow + goodRow + "1,2,3,1,2017-05-99 08:30:00,wx4g0bm,wx4g0bn\n", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.input), geo.NewProjector(geo.LatLng{Lat: 39.9, Lng: 116.4}))
			if err == nil {
				t.Fatalf("ReadCSV accepted %q", tc.input)
			}
			if want := fmt.Sprintf("line %d", tc.line); !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadCSV error %q does not name %q", err, want)
			}
			_, err = readEndPoints(strings.NewReader(tc.input), ScanOptions{ChunkSize: 16, Workers: 3})
			if err == nil {
				t.Fatalf("readEndPoints accepted %q", tc.input)
			}
			var rowErr *RowError
			if errors.As(err, &rowErr) {
				if rowErr.Line != tc.line {
					t.Fatalf("readEndPoints reported line %d, want %d (err %v)", rowErr.Line, tc.line, err)
				}
			} else if want := fmt.Sprintf("line %d", tc.line); !strings.Contains(err.Error(), want) {
				t.Fatalf("readEndPoints error %q does not name %q", err, want)
			}
		})
	}
}

// TestQuotedRowErrorLines: a malformed quoted record is parsed by the
// fold's encoding/csv reader, which has read the quoted rows before it,
// and the csv.ParseError it yields must carry the file's lines, as
// ReadCSV's reader over the whole file reports them, at every chunk size
// and worker count.
func TestQuotedRowErrorLines(t *testing.T) {
	quotedRow := `1,2,3,1,2017-05-10 08:30:00,"wx4g0bm",wx4g0bn` + "\n"
	prefix := strings.Join(csvHeader, ",") + "\n" + goodRow + quotedRow + goodRow + quotedRow + quotedRow
	cases := []struct {
		name                    string
		row                     string
		startLine, line, column int
	}{
		{"junk after quote", `1,2,3,1,2017-05-10 08:30:00,"wx4g0bm"x,wx4g0bn` + "\n", 7, 7, 37},
		{"breaks on its second line", `1,2,3,1,2017-05-10 08:30:00,"wx` + "\n" + `4"x,wx4g0bn` + "\n", 7, 8, 2},
		{"wrong field count", `1,2,3,"1",2017-05-10 08:30:00,wx4g0bm` + "\n", 7, 7, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			input := prefix + tc.row + goodRow
			want := csv.ParseError{StartLine: tc.startLine, Line: tc.line, Column: tc.column}
			check := func(reader string, err error) {
				t.Helper()
				var pe *csv.ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: error %v is not a *csv.ParseError", reader, err)
				}
				if pe.StartLine != want.StartLine || pe.Line != want.Line || pe.Column != want.Column {
					t.Fatalf("%s: %v at start line %d, line %d, column %d; want %d, %d, %d",
						reader, err, pe.StartLine, pe.Line, pe.Column, want.StartLine, want.Line, want.Column)
				}
			}
			_, err := ReadCSV(strings.NewReader(input), nil)
			check("ReadCSV", err)
			for _, workers := range []int{1, 3} {
				for _, chunk := range []int{7, 64, 1 << 20} {
					_, err := readEndPoints(strings.NewReader(input), ScanOptions{ChunkSize: chunk, Workers: workers})
					check(fmt.Sprintf("readEndPoints chunk=%d workers=%d", chunk, workers), err)
				}
			}
		})
	}
}

// TestScanSummaryMatchesMaterialized pins the per-chunk place fold to
// its materialised counterparts, bit for bit: ScanSummarize's Center to
// GeohashCenter, and ReadEndPoints to the fold of
// EndPoints(ProjectTrips(...)) around that centre and to the row-by-row
// reference loader, at every worker count and chunk size.
func TestScanSummaryMatchesMaterialized(t *testing.T) {
	trips, err := Generate(Config{Days: 2, Seed: 5, TripsWeekday: 150, TripsWeekend: 100, Bikes: 30})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, trips); err != nil {
		t.Fatal(err)
	}
	input := sb.String()

	raw, err := ReadCSV(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCenter, err := GeohashCenter(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := ProjectTrips(raw, geo.NewProjector(wantCenter)); err != nil {
		t.Fatal(err)
	}
	ends := geo.FoldPoints(EndPoints(raw))

	for _, workers := range diffWorkers {
		sum, err := ScanSummarize(strings.NewReader(input), ScanOptions{ChunkSize: 97, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Trips != int64(len(raw)) {
			t.Fatalf("workers=%d: summary counted %d trips, want %d", workers, sum.Trips, len(raw))
		}
		center, err := sum.Center()
		if err != nil {
			t.Fatal(err)
		}
		if center != wantCenter {
			t.Fatalf("workers=%d: centre %v, want %v", workers, center, wantCenter)
		}
		for _, chunk := range diffChunks {
			opts := ScanOptions{ChunkSize: chunk, Workers: workers}
			got, err := readEndPoints(strings.NewReader(input), opts)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if msg := diffMultisets(got, ends); msg != "" {
				t.Fatalf("workers=%d chunk=%d: %s", workers, chunk, msg)
			}
			ref, err := readEndPointsReference(strings.NewReader(input))
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: reference: %v", workers, chunk, err)
			}
			if msg := diffMultisets(got, ref); msg != "" {
				t.Fatalf("workers=%d chunk=%d: against the row-by-row reference: %s", workers, chunk, msg)
			}
		}
	}
}

// TestPackGeohash: packing is injective on geohashes of 1–12 alphabet
// bytes, leading zeros (code 0) included, and refuses every other field.
func TestPackGeohash(t *testing.T) {
	const alphabet = "0123456789bcdefghjkmnpqrstuvwxyz"
	seen := make(map[uint64]string)
	add := func(h string) {
		key, ok := packGeohash([]byte(h))
		if !ok {
			t.Fatalf("%q did not pack", h)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("%q and %q pack to %#x", prev, h, key)
		}
		seen[key] = h
	}
	for i := range alphabet {
		add(alphabet[i : i+1])
		for j := range alphabet {
			add(alphabet[i:i+1] + alphabet[j:j+1])
		}
	}
	for n := 3; n <= maxPackedGeohash; n++ {
		add(strings.Repeat("0", n))
		add(strings.Repeat("z", n))
	}
	for _, h := range []string{"", "0000000000000", "wx4g0bmwx4g0b", "A", "a", "i", "l", "o", "wx4g,bm", "wx4g0b\xff"} {
		if key, ok := packGeohash([]byte(h)); ok {
			t.Errorf("%q packed to %#x", h, key)
		}
	}
}

// TestReadEndPointsManyCells drives the per-chunk cell tables past their
// starting size: some 2,800 distinct end cells and as many start cells,
// of every length from 1 to 13 characters, leading zeros included, in
// one chunk and in many. The fold must match the row-by-row reference bit
// for bit.
func TestReadEndPointsManyCells(t *testing.T) {
	const alphabet = "0123456789bcdefghjkmnpqrstuvwxyz"
	cell := func(k int) string {
		v := uint64(k) * 0x9E3779B97F4A7C15
		if k < 32 {
			v = 0 // "0", "00", ...: keys that differ only by their length
		}
		b := make([]byte, 1+k%13)
		for j := range b {
			b[j] = alphabet[v>>(5*j)&31]
		}
		return string(b)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(csvHeader, ",") + "\n")
	for i := range 9000 {
		fmt.Fprintf(&sb, "%d,2,3,1,2017-05-10 08:30:00,%s,%s\n", i+1, cell(3000+i%3000), cell(i*7%3000))
	}
	input := sb.String()
	for _, workers := range []int{1, 2} {
		for _, chunk := range []int{1 << 12, 1 << 20} {
			opts := ScanOptions{ChunkSize: chunk, Workers: workers}
			got, err := readEndPoints(strings.NewReader(input), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := readEndPointsReference(strings.NewReader(input))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() < 2000 {
				t.Fatalf("%d places, want more than 2,000", got.Len())
			}
			if msg := diffMultisets(got, want); msg != "" {
				t.Fatalf("workers=%d chunk=%d: %s", workers, chunk, msg)
			}
		}
	}
}

// TestCSVWriterMatchesEncodingCSV pins the scratch-buffer writer to
// encoding/csv byte for byte, including fields that need quoting.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	ts := time.Date(2017, time.May, 10, 8, 30, 0, 0, time.UTC)
	trips := []Trip{
		{OrderID: 1, UserID: 2, BikeID: 3, BikeType: 1, StartTime: ts, StartGeohash: "wx4g0bm", EndGeohash: "wx4g0bn"},
		{OrderID: -4, UserID: 0, BikeID: 9_000_000_000, BikeType: 2, StartTime: ts, StartGeohash: `wx"4`, EndGeohash: "wx,4"},
		{OrderID: 5, UserID: 6, BikeID: 7, BikeType: 1, StartTime: ts, StartGeohash: "a\nb", EndGeohash: "a\rb"},
		{OrderID: 8, UserID: 9, BikeID: 10, BikeType: 1, StartTime: ts, StartGeohash: " lead", EndGeohash: "\ttab"},
		{OrderID: 11, UserID: 12, BikeID: 13, BikeType: 1, StartTime: ts, StartGeohash: `\.`, EndGeohash: ""},
		{OrderID: 14, UserID: 15, BikeID: 16, BikeType: 1, StartTime: ts, StartGeohash: "mid space", EndGeohash: "trail "},
	}
	var got bytes.Buffer
	if err := WriteCSV(&got, trips); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	ref := csv.NewWriter(&want)
	if err := ref.Write(csvHeader); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trips {
		rec := []string{
			fmt.Sprint(tr.OrderID), fmt.Sprint(tr.UserID), fmt.Sprint(tr.BikeID),
			fmt.Sprint(tr.BikeType), tr.StartTime.Format(csvTimeLayout),
			tr.StartGeohash, tr.EndGeohash,
		}
		if err := ref.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()
	if ref.Error() != nil {
		t.Fatal(ref.Error())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("writer output diverged:\ngot:  %q\nwant: %q", got.Bytes(), want.Bytes())
	}
	// The quoted output reads back as the trips written, and
	// readEndPoints agrees with both oracles on it.
	back, err := ReadCSV(bytes.NewReader(got.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, trips) {
		t.Fatalf("round trip:\ngot:  %+v\nwant: %+v", back, trips)
	}
	diffCodecs(t, got.String())
}

// TestCSVWriterAllocBudget is the satellite alloc-budget test: once the
// internal buffer is warm, writing a batch of trips performs no
// per-trip allocations (the old implementation allocated seven strings
// per trip).
func TestCSVWriterAllocBudget(t *testing.T) {
	trips, err := Generate(Config{Days: 1, Seed: 3, TripsWeekday: 500, TripsWeekend: 300, Bikes: 20})
	if err != nil {
		t.Fatal(err)
	}
	cw := NewCSVWriter(io.Discard)
	if err := cw.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteTrips(trips); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := cw.WriteTrips(trips); err != nil {
			t.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("WriteTrips allocated %.1f times for %d trips, want <= 1", allocs, len(trips))
	}
}

// TestGenerateStreamMatchesGenerate: the per-day streaming generator
// must emit Generate's trips with empty geohashes, already globally
// sorted; FillGeohashes on each day then gives exactly Generate's trips.
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := Config{
		Days: 4, Seed: 7, TripsWeekday: 250, TripsWeekend: 150, Bikes: 60,
		Surges: []Surge{{Day: 1, HourStart: 18, HourEnd: 20, Center: geo.Pt(2500, 2500), Trips: 80}},
	}
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Trip
	days := 0
	err = GenerateStream(cfg, func(day int, trips []Trip) error {
		if day != days {
			t.Fatalf("day %d emitted out of order (want %d)", day, days)
		}
		days++
		for i, tr := range trips {
			if tr.StartGeohash != "" || tr.EndGeohash != "" {
				t.Fatalf("day %d trip %d streamed with geohashes %q, %q", day, i, tr.StartGeohash, tr.EndGeohash)
			}
		}
		FillGeohashes(cfg, trips)
		got = append(got, trips...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Fatalf("emitted %d days, want %d", days, cfg.Days)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d trips, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trip %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The concatenation must already be globally sorted: re-sorting
	// with the generator's comparator must be a no-op.
	sorted := append([]Trip(nil), got...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].StartTime.Equal(sorted[j].StartTime) {
			return sorted[i].StartTime.Before(sorted[j].StartTime)
		}
		return sorted[i].OrderID < sorted[j].OrderID
	})
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("streamed output not globally sorted at %d", i)
		}
	}
}

// TestGenerateStreamEmitError: an emit error aborts generation.
func TestGenerateStreamEmitError(t *testing.T) {
	sentinel := errors.New("stop")
	calls := 0
	err := GenerateStream(Config{Days: 3, Seed: 1, TripsWeekday: 50, TripsWeekend: 30, Bikes: 10},
		func(int, []Trip) error {
			calls++
			return sentinel
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error, want 1", calls)
	}
}

// TestIngestCSVReaderError: a mid-stream I/O failure surfaces from
// readEndPoints, unless a malformed row was cut into a chunk before it:
// that row is the file's first error, at every worker count.
func TestIngestCSVReaderError(t *testing.T) {
	hdr := strings.Join(csvHeader, ",") + "\n"
	boom := errors.New("disk on fire")
	cases := []struct {
		name, input, want string
	}{
		{"good rows", hdr + strings.Repeat(goodRow, 50), boom.Error()},
		{"malformed row first", hdr + "x" + goodRow[1:] + goodRow + goodRow, "line 2: orderid: "},
	}
	for _, tc := range cases {
		for _, chunk := range []int{48, 64, 100, 128} {
			for _, workers := range []int{1, 2, 4} {
				r := io.MultiReader(strings.NewReader(tc.input), errReader{boom})
				_, err := readEndPoints(r, ScanOptions{ChunkSize: chunk, Workers: workers})
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) || tc.want == boom.Error() && !errors.Is(err, boom) {
					t.Errorf("%s, chunk=%d workers=%d: err = %v, want %q", tc.name, chunk, workers, err, tc.want)
				}
			}
		}
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestMalformedRowStopsScan: a malformed row in the first chunk of a
// long input ends the scan once that chunk merges. readEndPoints reports
// the row, reads at most one chunk per ring slot and one more past the
// header, and returns only after its workers have exited.
func TestMalformedRowStopsScan(t *testing.T) {
	const chunk = 1 << 10
	hdr := strings.Join(csvHeader, ",") + "\n"
	input := hdr + "x" + goodRow[1:] + strings.Repeat(goodRow, 100*chunk/len(goodRow))
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		opts := ScanOptions{ChunkSize: chunk, Workers: workers}
		r := &countingReader{r: strings.NewReader(input)}
		_, err := readEndPoints(r, opts)
		var rowErr *RowError
		if !errors.As(err, &rowErr) || rowErr.Line != 2 {
			t.Fatalf("workers=%d: err = %v, want line 2's error", workers, err)
		}
		if limit := len(hdr) + (opts.slots()+1)*chunk; r.n > limit {
			t.Errorf("workers=%d: read %d bytes of %d, want at most %d", workers, r.n, len(input), limit)
		}
	}
	// A worker may still be on its way out after signalling the scan.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the scans, %d before", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestScanRecordLargerThanChunk: a record longer than the chunk grows
// the buffer transparently rather than failing or splitting.
func TestScanRecordLargerThanChunk(t *testing.T) {
	hdr := strings.Join(csvHeader, ",")
	long := "1,2,3,1,2017-05-10 08:30:00,wx4g0bm," + strings.Repeat("w", 4096) + "\n"
	input := hdr + "\n" + long + goodRow
	got, err := readEndPoints(strings.NewReader(input), ScanOptions{ChunkSize: 32, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != 2 {
		t.Fatalf("%d end points, want 2", got.Total())
	}
	checkReadEndPoints(t, input, ScanOptions{ChunkSize: 32, Workers: 4})
}
