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
		err := GenerateStream(Config{
			Days: 5, TripsWeekday: 16000, TripsWeekend: 12000, Bikes: 400, Seed: 11,
		}, func(_ int, trips []Trip) error {
			benchCSVRows += len(trips)
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

// BenchmarkReadCSV times the encoding/csv test oracle, the materialising
// baseline the streaming scanner is measured against (EXPERIMENTS.md's
// ingest throughput table). The scanner-backed ReadCSV is the
// ingest/readcsv section of internal/benchsuite, on the same CSV.
func BenchmarkReadCSV(b *testing.B) {
	data, _ := benchCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readCSVReference(bytes.NewReader(data), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestCSVDecode is the bare batch scan at one worker with
// geohash decoding, the configuration ReadCSV runs with a projector.
func BenchmarkIngestCSVDecode(b *testing.B) {
	data, rows := benchCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	opts := ScanOptions{Workers: 1, decodeGeohashes: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		err := ingestCSV(bytes.NewReader(data), opts, func(batch []rawTrip) error {
			n += len(batch)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scanned %d rows, want %d", n, rows)
		}
	}
}

// BenchmarkIngestCSVParallel runs the deterministic parallel parse at 4
// workers; output is bit-identical to one worker by construction.
func BenchmarkIngestCSVParallel(b *testing.B) {
	data, rows := benchCSV(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	opts := ScanOptions{Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		err := ingestCSV(bytes.NewReader(data), opts, func(batch []rawTrip) error {
			n += len(batch)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scanned %d rows, want %d", n, rows)
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
