package dataset

import (
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
