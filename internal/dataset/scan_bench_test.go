package dataset

import (
	"bytes"
	"testing"
)

// benchCSVData renders a synthetic multi-day Mobike CSV once per
// process so the benchmarks measure parsing, not generation.
var benchCSVData []byte
var benchCSVRows int

func benchCSV(b *testing.B) ([]byte, int) {
	b.Helper()
	if benchCSVData == nil {
		var buf bytes.Buffer
		cw := NewCSVWriter(&buf)
		if err := cw.WriteHeader(); err != nil {
			b.Fatal(err)
		}
		cfg := Config{Days: 5, TripsWeekday: 16000, TripsWeekend: 12000, Bikes: 400, Seed: 11}
		err := GenerateStream(cfg, func(_ int, trips []Trip) error {
			benchCSVRows += len(trips)
			FillGeohashes(cfg, trips)
			return cw.WriteTrips(trips)
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cw.Flush(); err != nil {
			b.Fatal(err)
		}
		benchCSVData = buf.Bytes()
	}
	return benchCSVData, benchCSVRows
}

// BenchmarkReadCSV times ReadCSV, the row-by-row encoding/csv reader
// that materialises every trip, against which the place fold is measured
// (EXPERIMENTS.md's ingest throughput table).
func BenchmarkReadCSV(b *testing.B) {
	data, _ := benchCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(data), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanSummarize times the per-chunk place fold behind
// ReadEndPoints, whose summary ScanSummarize returns: geohash decodes
// folded straight into each chunk's bounding box and places, with no
// batch of parsed rows.
func BenchmarkScanSummarize(b *testing.B) {
	data, rows := benchCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := ScanSummarize(bytes.NewReader(data), ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if sum.Trips != int64(rows) {
			b.Fatalf("summarized %d rows, want %d", sum.Trips, rows)
		}
	}
}
