package dataset

import (
	"fmt"
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

// FuzzScanCSV is the differential target for the streaming scanner: for
// any input, chunk size and worker count, ReadCSV and the sequential
// encoding/csv oracle must either both error or produce bit-identical
// trips, with and without a projector.
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
	projector := geo.NewProjector(geo.LatLng{Lat: 39.9, Lng: 116.4})
	f.Fuzz(func(t *testing.T, input string, chunk uint16, workers uint8) {
		opts := ScanOptions{
			ChunkSize: 1 + int(chunk%512),
			Workers:   1 + int(workers%8),
		}
		for _, proj := range []*geo.Projector{nil, projector} {
			want, wantErr := readCSVReference(strings.NewReader(input), proj)
			got, gotErr := readCSV(strings.NewReader(input), proj, opts)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("chunk=%d workers=%d: oracle err=%v, streaming err=%v",
					opts.ChunkSize, opts.Workers, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("chunk=%d workers=%d: %d trips, want %d",
					opts.ChunkSize, opts.Workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("chunk=%d workers=%d: trip %d = %+v, want %+v",
						opts.ChunkSize, opts.Workers, i, got[i], want[i])
				}
			}
		}
	})
}

// FuzzReadEndPoints is the differential target for the per-chunk place
// fold: for any input, chunk size and worker count, readEndPoints and
// the row-by-row reference loader must fail with the same error text,
// line included, or return Float64bits-identical places with the same
// counts.
func FuzzReadEndPoints(f *testing.F) {
	header := strings.Join(csvHeader, ",")
	row := func(id, start, end string) string {
		return id + ",2,3,1,2017-05-10 08:30:00," + start + "," + end + "\n"
	}
	valid := row("1", "wx4g0bm", "wx4g0bn")
	// An empty geohash in the first chunk, a bad orderid in a later one.
	f.Add(header+"\n"+row("1", "wx4g0bm", "")+strings.Repeat(valid, 3)+row("x4", "wx4g0bm", "wx4g0bn"), uint16(60), uint8(2))
	// An empty start, then an empty end, then an invalid geohash.
	f.Add(header+"\n"+valid+row("2", "", "wx4g0bn")+row("3", "wx4g0bm", "")+row("4", "wx4g0bm", "wx4I0bn"), uint16(47), uint8(3))
	// Empty geohashes in two chunks: the first in the file is reported.
	f.Add(header+"\n"+valid+row("2", "", "wx4g0bn")+strings.Repeat(valid, 3)+row("3", "wx4g0bm", ""), uint16(47), uint8(2))
	f.Add(header+"\n"+row("1", "\"wx4g0bm\"", "wx4g0bn")+valid, uint16(20), uint8(2))
	f.Add(header+"\n"+valid+"1,2,3,1,2017-02-30 08:30:00,wx4g0bm,wx4g0bn\n", uint16(33), uint8(1))
	f.Add(header+"\r\n\r\n"+strings.ReplaceAll(valid, "\n", "\r\n")+"\n\n"+row("2", "wx4g0bp", "wx4g0bq"), uint16(9), uint8(4))
	f.Add(header+"\n"+row("1", "", "")+row("2", "", ""), uint16(512), uint8(1))
	f.Add(header+"\n", uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, input string, chunk uint16, workers uint8) {
		opts := ScanOptions{
			ChunkSize: 1 + int(chunk%512),
			Workers:   1 + int(workers%8),
		}
		want, wantErr := readEndPointsReference(strings.NewReader(input), opts)
		got, gotErr := readEndPoints(strings.NewReader(input), opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("chunk=%d workers=%d: error %v, reference %v", opts.ChunkSize, opts.Workers, gotErr, wantErr)
		}
		if msg := diffMultisets(got, want); msg != "" {
			t.Fatalf("chunk=%d workers=%d: %s", opts.ChunkSize, opts.Workers, msg)
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
