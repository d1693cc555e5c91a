package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
)

// FuzzReadCSV ensures the trip parser never panics on arbitrary input and
// only returns trips it can fully validate structurally.
func FuzzReadCSV(f *testing.F) {
	header := strings.Join(csvHeader, ",")
	f.Add(header + "\n1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n")
	f.Add(header + "\n")
	f.Add("not,a,header\n")
	f.Add(header + "\nx,y,z\n")
	f.Add(header + "\n1,2,3,1,2017-05-10 08:30:00,IIII,wx4\n")
	f.Add("")
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9, Lng: 116.4})
	f.Fuzz(func(t *testing.T, input string) {
		trips, err := ReadCSV(strings.NewReader(input), projector)
		if err != nil {
			return
		}
		for _, tr := range trips {
			if tr.StartTime.IsZero() {
				t.Fatal("accepted trip with zero time")
			}
			if len(tr.StartGeohash) == 0 || len(tr.EndGeohash) == 0 {
				t.Fatal("accepted trip with empty geohash")
			}
		}
	})
}

// FuzzScanCSV drives the chunked record cutter against encoding/csv:
// for any input, chunk size and worker count, readEndPoints must agree
// with both oracles of checkReadEndPoints. Its seeds stress quoting,
// CRLF and chunk boundaries; FuzzReadEndPoints's stress the fold.
func FuzzScanCSV(f *testing.F) {
	header := strings.Join(csvHeader, ",")
	f.Add(header+"\n1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n", uint16(7), uint8(2))
	f.Add(header+"\r\n1,2,3,1,2017-05-10 8:30:00,wx4g0bm,wx4g0bn", uint16(3), uint8(4))
	f.Add(header+"\n1,2,3,1,2017-05-10 08:30:00,\"wx\n4\",\"wx\"\"4\"\n", uint16(5), uint8(1))
	f.Add(header+"\n\n1,2,3,1,2017-05-10 08:30:00,\"wx,4\",wx4g0bn\r\n\n", uint16(64), uint8(3))
	f.Add(header+"\n1,2,x,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn\n", uint16(1), uint8(7))
	f.Add("not,a,header\n", uint16(11), uint8(2))
	f.Add("", uint16(1), uint8(1))
	f.Add("\"\r\n\x00\"", uint16(2), uint8(2))
	// A CR before EOF, in a quoted header and in a blank one.
	f.Add("\"\r\r", uint16(14), uint8(4))
	f.Add("\r\r", uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, input string, chunk uint16, workers uint8) {
		checkReadEndPoints(t, input, ScanOptions{ChunkSize: 1 + int(chunk%512), Workers: 1 + int(workers%8)})
	})
}

// FuzzReadEndPoints is the differential target for the per-chunk place
// fold: for any input, chunk size and worker count, readEndPoints must
// agree with both oracles of checkReadEndPoints. Read through a reader
// that fails after failAt bytes of input, it must return one error at
// every worker count from 1 to 8.
func FuzzReadEndPoints(f *testing.F) {
	header := strings.Join(csvHeader, ",")
	row := func(id, start, end string) string {
		return id + ",2,3,1,2017-05-10 08:30:00," + start + "," + end + "\n"
	}
	valid := row("1", "wx4g0bm", "wx4g0bn")
	// An empty geohash in the first chunk, a bad orderid in a later one.
	f.Add(header+"\n"+row("1", "wx4g0bm", "")+strings.Repeat(valid, 3)+row("x4", "wx4g0bm", "wx4g0bn"), uint16(60), uint8(2), uint16(200))
	// An empty start, then an empty end, then an invalid geohash.
	f.Add(header+"\n"+valid+row("2", "", "wx4g0bn")+row("3", "wx4g0bm", "")+row("4", "wx4g0bm", "wx4I0bn"), uint16(47), uint8(3), uint16(150))
	// Empty geohashes in two chunks: the first in the file is reported.
	f.Add(header+"\n"+valid+row("2", "", "wx4g0bn")+strings.Repeat(valid, 3)+row("3", "wx4g0bm", ""), uint16(47), uint8(2), uint16(260))
	f.Add(header+"\n"+row("1", "\"wx4g0bm\"", "wx4g0bn")+valid, uint16(20), uint8(2), uint16(70))
	f.Add(header+"\n"+valid+"1,2,3,1,2017-02-30 08:30:00,wx4g0bm,wx4g0bn\n", uint16(33), uint8(1), uint16(90))
	f.Add(header+"\r\n\r\n"+strings.ReplaceAll(valid, "\n", "\r\n")+"\n\n"+row("2", "wx4g0bp", "wx4g0bq"), uint16(9), uint8(4), uint16(120))
	f.Add(header+"\n"+row("1", "", "")+row("2", "", ""), uint16(512), uint8(1), uint16(40))
	// One end cell reached packed, then from rows whose other geohash
	// does not pack (13 characters, then empty), then packed again.
	f.Add(header+"\n"+valid+row("2", "wx4g0bmwx4g0b", "wx4g0bn")+row("3", "", "wx4g0bn")+valid, uint16(512), uint8(1), uint16(300))
	f.Add(header+"\n"+valid+row("2", "WX4G0BM", "wx4g0bn"), uint16(512), uint8(1), uint16(110))
	f.Add(header+"\n", uint16(1), uint8(1), uint16(50))
	// A bad orderid, then a read error two rows on.
	f.Add(header+"\n"+row("x4", "wx4g0bm", "wx4g0bn")+valid+valid, uint16(47), uint8(1), uint16(212))
	f.Fuzz(func(t *testing.T, input string, chunk uint16, workers uint8, failAt uint16) {
		opts := ScanOptions{ChunkSize: 1 + int(chunk%512), Workers: 1 + int(workers%8)}
		checkReadEndPoints(t, input, opts)
		prefix := input[:int(failAt)%(len(input)+1)]
		boom := errors.New("read failed")
		var want error
		for opts.Workers = 1; opts.Workers <= 8; opts.Workers++ {
			_, err := readEndPoints(io.MultiReader(strings.NewReader(prefix), errReader{boom}), opts)
			if err == nil {
				t.Fatalf("chunk=%d workers=%d: no error from a failing reader\nprefix: %q", opts.ChunkSize, opts.Workers, prefix)
			}
			if opts.Workers == 1 {
				want = err
			} else if err.Error() != want.Error() {
				t.Fatalf("chunk=%d workers=%d: error %v, at one worker %v\nprefix: %q", opts.ChunkSize, opts.Workers, err, want, prefix)
			}
		}
	})
}

// checkReadEndPoints reads input with readEndPoints at opts and checks
// the result against two oracles:
//   - the row-by-row fold, readEndPointsReference: the same error text,
//     line included, or Float64bits-identical places with the same
//     counts;
//   - encoding/csv, through ReadCSV: when ReadCSV fails, readEndPoints
//     fails too, and a *csv.ParseError readEndPoints reports is
//     ReadCSV's, at the same lines and column; when both fail with a
//     *RowError on the same line, readEndPoints's words are ReadCSV's
//     unless it names an invalid geohash, which ReadCSV without a
//     projector does not decode; when ReadCSV accepts trips that
//     GeohashCenter or ProjectTrips rejects, readEndPoints fails; when
//     all three succeed, readEndPoints returns the fold of their
//     EndPoints bit for bit.
func checkReadEndPoints(t *testing.T, input string, opts ScanOptions) {
	t.Helper()
	got, gotErr := readEndPoints(strings.NewReader(input), opts)
	want, wantErr := readEndPointsReference(strings.NewReader(input))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("chunk=%d workers=%d: error %v, row-by-row fold %v\ninput: %q", opts.ChunkSize, opts.Workers, gotErr, wantErr, input)
	}
	if msg := diffMultisets(got, want); msg != "" {
		t.Fatalf("chunk=%d workers=%d: against the row-by-row fold: %s\ninput: %q", opts.ChunkSize, opts.Workers, msg, input)
	}

	trips, csvErr := ReadCSV(strings.NewReader(input), nil)
	if csvErr != nil && gotErr == nil {
		t.Fatalf("chunk=%d workers=%d: encoding/csv rejects the input (%v), readEndPoints accepts it\ninput: %q",
			opts.ChunkSize, opts.Workers, csvErr, input)
	}
	if gotPE := (*csv.ParseError)(nil); errors.As(gotErr, &gotPE) {
		csvPE := (*csv.ParseError)(nil)
		if !errors.As(csvErr, &csvPE) || *csvPE != *gotPE {
			t.Fatalf("chunk=%d workers=%d: error %v, encoding/csv %v\ninput: %q", opts.ChunkSize, opts.Workers, gotErr, csvErr, input)
		}
	}
	var gotRow, csvRow *RowError
	if errors.As(gotErr, &gotRow) && errors.As(csvErr, &csvRow) && gotRow.Line == csvRow.Line &&
		!errors.Is(gotErr, geo.ErrInvalidGeohash) && gotErr.Error() != csvErr.Error() {
		t.Fatalf("chunk=%d workers=%d: error %v, encoding/csv %v\ninput: %q", opts.ChunkSize, opts.Workers, gotErr, csvErr, input)
	}
	if csvErr != nil {
		return
	}
	center, err := GeohashCenter(trips)
	if err == nil {
		err = ProjectTrips(trips, geo.NewProjector(center))
	}
	if err != nil {
		if gotErr == nil && len(trips) > 0 {
			t.Fatalf("chunk=%d workers=%d: GeohashCenter or ProjectTrips rejects the trips (%v), readEndPoints accepts them\ninput: %q",
				opts.ChunkSize, opts.Workers, err, input)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("chunk=%d workers=%d: error %v, but encoding/csv and ProjectTrips accept the input\ninput: %q",
			opts.ChunkSize, opts.Workers, gotErr, input)
	}
	if msg := diffMultisets(got, geo.FoldPoints(EndPoints(trips))); msg != "" {
		t.Fatalf("chunk=%d workers=%d: against encoding/csv: %s\ninput: %q", opts.ChunkSize, opts.Workers, msg, input)
	}
}

// FuzzParseFast is the differential target for the shape check: every
// record parseFast accepts, slowParser.parse (ReadCSV's parse) accepts
// with the same geohash fields. Its domain is the records recordCutter
// hands parseFast: no quote and no newline.
func FuzzParseFast(f *testing.F) {
	for _, rec := range []string{
		"1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"123456789012345678,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"1234567890123456789,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"9223372036854775808,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"+1,-2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,-,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,1,2017-05-10 8:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,1,2017-05-10 8:30:0,wx4g0bm,wx4g0bn",
		"1,2,3,1,2017-02-30 08:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,1,2017-05-10 08:30:00,wx4g0bmwx4g0,wx4g0bmwx4g0b",
		"1,2,3,1,2017-05-10 08:30:00,WX4G0BM,wx4g0ai",
		"1,2,3,1,2017-05-10 08:30:00,,",
		"1,2,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn,",
		"1,2,3,1,2017-05-10 08:30:00,wx4g0bm",
		"1,,3,1,2017-05-10 08:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,1,",
		"1,2,3,1,2017-05-10  8:30:00,wx4g0bm,wx4g0bn",
		"1,2,3,1,2017-05-10 08:30:00.25,wx4g0bm,wx4g0bn",
		"1,2,3,1,2016-02-29 23:59:59,wx\r4,\x00",
	} {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec string) {
		if strings.ContainsAny(rec, "\"\n") {
			return // recordCutter never hands parseFast such a record
		}
		start, end, ok := parseFast([]byte(rec))
		if !ok {
			return
		}
		wantStart, wantEnd, err := new(slowParser).parse([]byte(rec), 2)
		if err != nil {
			t.Fatalf("%q: parseFast accepts, slowParser.parse fails: %v", rec, err)
		}
		if string(start) != string(wantStart) || string(end) != string(wantEnd) {
			t.Fatalf("%q: parseFast %q %q, slowParser.parse %q %q", rec, start, end, wantStart, wantEnd)
		}
	})
}

// diffMultisets describes the first difference between two multisets of
// places, comparing coordinates by their bits, or returns "".
func diffMultisets(got, want geo.Multiset) string {
	if got.Len() != want.Len() || got.Total() != want.Total() {
		return fmt.Sprintf("%d places (%d points), want %d (%d)", got.Len(), got.Total(), want.Len(), want.Total())
	}
	for i, w := range want.Points() {
		g := got.Points()[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			got.Counts()[i] != want.Counts()[i] {
			return fmt.Sprintf("place %d = %v ×%d, want %v ×%d", i, g, got.Counts()[i], w, want.Counts()[i])
		}
	}
	return ""
}
