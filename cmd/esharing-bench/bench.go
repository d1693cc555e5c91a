package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/stats"
)

// benchRecord is one hot section's measured cost. CI uploads the full
// array (BENCH_compute.json) on every run so the repository keeps a
// perf trajectory across PRs. AllocBytes and Extra (custom metrics such
// as rows/s from b.ReportMetric) are informational: the compare gate
// diffs only Ns.
type benchRecord struct {
	Section    string             `json:"section"`
	Ns         int64              `json:"ns"`
	Allocs     int64              `json:"allocs"`
	AllocBytes int64              `json:"allocBytes,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// runBenchJSON measures the compute hot sections — the offline solver,
// the 2-D KS statistic and the forecasting grid — at the current
// parallelism and writes {section, ns, allocs} records as JSON.
func runBenchJSON(out io.Writer) error {
	records := measureBenchSections()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// measureBenchSections runs every tracked hot section once through
// testing.Benchmark and returns the records; benchjson encodes them,
// compare diffs them against a committed baseline.
func measureBenchSections() []benchRecord {
	var records []benchRecord
	add := func(section string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rec := benchRecord{
			Section:    section,
			Ns:         r.NsPerOp(),
			Allocs:     r.AllocsPerOp(),
			AllocBytes: r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			rec.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				rec.Extra[k] = v
			}
		}
		records = append(records, rec)
	}

	// N=200/500 predate the incremental engine; N=2000/10000 exist
	// because the engine made them feasible — the committed baseline is
	// the proof the repository stays at city scale.
	solve := func(p *core.Problem) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveOffline(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, n := range []int{200, 500, 2000, 10000} {
		add(fmt.Sprintf("solver/offline/N=%d", n), solve(benchProblem(uint64(n), n)))
	}
	// The instance esharing-server plans at every start with its default
	// flags. Its clustered demand makes it slower per demand than the
	// uniform rows, and it is the solve a restart waits for.
	add("solver/offline/history=7d", solve(historyProblem()))

	for _, n := range []int{100, 500} {
		rng := stats.NewRNG(uint64(n))
		box := geo.Square(geo.Pt(0, 0), 1000)
		pa := stats.SamplePoints(rng, stats.UniformDist{Box: box}, n)
		pb := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(250, 250), 1000)}, n)
		add(fmt.Sprintf("ks/peacock2dfast/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stats.Peacock2DFast(pa, pb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The drift test Algorithm 2 runs every TestEvery requests: a
	// 100-point window from a shifted box against a uniform history, at
	// the server's default 7-day history size and at Mobike scale.
	// ks/online is the uncached sweep over H and W; ks/reference is the
	// per-test query the placer runs on a prebuilt KSReference, and
	// ks/reference-build the one-off build it pays on its first test.
	for _, h := range []int{12800, 1000000} {
		rng := stats.NewRNG(uint64(h))
		hist := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 5000)}, h)
		window := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(1000, 1000), 5000)}, 100)
		add(fmt.Sprintf("ks/online/H=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stats.Peacock2DFast(hist, window); err != nil {
					b.Fatal(err)
				}
			}
		})
		ref, err := stats.NewKSReference(hist)
		if err != nil {
			panic(err)
		}
		add(fmt.Sprintf("ks/reference/H=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ref.Statistic(window); err != nil {
					b.Fatal(err)
				}
			}
		})
		if h == 12800 {
			add(fmt.Sprintf("ks/reference-build/H=%d", h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := stats.NewKSReference(hist); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	train, test := benchSeries()
	specs := benchGridSpecs()
	add("grid/forecast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := forecast.GridSearch(0, specs, train, test, 6); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Ingest sections on the same in-memory Mobike CSV: ReadCSV (the
	// scanner materialising every []Trip, the price of holding a whole
	// history) against the bare zero-alloc scan and the streaming demand
	// pipeline. The scan section is pinned to one worker; ReadCSV and the
	// demand pipeline defer to parallel.Default, so `compare
	// -parallelism 1` pins them too. The encoding/csv baseline is the
	// test oracle that BenchmarkReadCSV in internal/dataset times.
	data, rows := benchCSV()
	perRow := float64(rows)
	add(fmt.Sprintf("ingest/readcsv/rows=%d", rows), func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := dataset.ReadCSV(bytes.NewReader(data), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perRow*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	// Geohash handling matches the readcsv section (ReadCSV with a nil
	// projector validates but does not decode geohashes), so the ns gap
	// between the two sections is the cost of materialising []Trip.
	add(fmt.Sprintf("ingest/scan/rows=%d", rows), func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		opts := dataset.ScanOptions{Workers: 1}
		for i := 0; i < b.N; i++ {
			var n int64
			err := dataset.IngestCSV(bytes.NewReader(data), opts, func(batch []dataset.RawTrip) error {
				n += int64(len(batch))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != int64(rows) {
				b.Fatalf("scanned %d rows, want %d", n, rows)
			}
		}
		b.ReportMetric(perRow*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	add(fmt.Sprintf("ingest/demand/rows=%d", rows), func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := benchIngestDemand(data, rows); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perRow*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	return records
}

// benchCSV renders the ingest fixture once: a multi-day synthetic
// Mobike CSV held in memory so the ingest sections measure parsing, not
// disk.
func benchCSV() ([]byte, int) {
	var buf bytes.Buffer
	rows := 0
	cw := dataset.NewCSVWriter(&buf)
	if err := cw.WriteHeader(); err != nil {
		panic(err)
	}
	err := dataset.GenerateStream(dataset.Config{
		Days: 5, TripsWeekday: 16000, TripsWeekend: 12000, Bikes: 400, Seed: 11,
	}, func(_ int, trips []dataset.Trip) error {
		rows += len(trips)
		return cw.WriteTrips(trips)
	})
	if err != nil {
		panic(err)
	}
	if err := cw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes(), rows
}

// benchIngestDemand is the server's CSV start-up path up to the
// offline instance: one streamed pass to planar end points, then the
// demand grid. ReadEndPoints' scan defers its worker count to
// parallel.Default, so `compare -parallelism 1` pins it.
func benchIngestDemand(data []byte, rows int) error {
	ends, err := dataset.ReadEndPoints(bytes.NewReader(data), rows)
	if err != nil {
		return err
	}
	if len(ends) != rows {
		return fmt.Errorf("read %d end points, want %d", len(ends), rows)
	}
	demands, err := core.AggregateDemand(ends, 100)
	if err != nil {
		return err
	}
	if len(demands) == 0 {
		return fmt.Errorf("empty demand grid")
	}
	return nil
}

// benchProblem mirrors the solver benchmark instances: clustered plus
// scattered demand with heterogeneous opening costs.
func benchProblem(seed uint64, n int) *core.Problem {
	rng := stats.NewRNG(seed)
	demands := make([]core.Demand, n)
	for i := range demands {
		var pt geo.Point
		if rng.IntN(3) == 0 {
			cx := float64(rng.IntN(4)) * 800
			cy := float64(rng.IntN(4)) * 800
			pt = geo.Pt(cx+rng.Float64()*50, cy+rng.Float64()*50)
		} else {
			pt = geo.Pt(rng.Float64()*3000, rng.Float64()*3000)
		}
		demands[i] = core.Demand{Loc: pt, Arrivals: 1 + float64(rng.IntN(5))}
	}
	opening := make([]float64, n)
	for i := range opening {
		opening[i] = 1000 + rng.Float64()*4000
	}
	p, err := core.NewProblem(demands, opening)
	if err != nil {
		panic(err)
	}
	return p
}

// historyProblem is esharing-server's start-up instance at its default
// flags: the 7-day synthetic history at seed 1, aggregated into 100 m
// cells, every station costing 10000.
func historyProblem() *core.Problem {
	trips, err := dataset.Generate(dataset.Config{Days: 7, Seed: 1})
	if err != nil {
		panic(err)
	}
	p, err := core.HistoryProblem(dataset.EndPoints(trips), 100, 10000)
	if err != nil {
		panic(err)
	}
	return p
}

// benchSeries is a small deterministic hourly series with daily
// seasonality for the grid section.
func benchSeries() (train, test []float64) {
	rng := stats.NewRNG(6)
	series := make([]float64, 14*24)
	for i := range series {
		hour := i % 24
		base := 40.0
		if hour >= 7 && hour <= 20 {
			base = 90
		}
		series[i] = base + 10*rng.Float64()
	}
	train, test, err := forecast.SplitTrainTest(series, 0.75)
	if err != nil {
		panic(err)
	}
	return train, test
}

// benchGridSpecs is an MA+ARIMA sweep — the statistical half of the
// Table II grid, heavy enough to exercise the parallel fan-out without
// LSTM training times.
func benchGridSpecs() []forecast.GridSpec {
	var specs []forecast.GridSpec
	for _, wz := range []int{1, 2, 3, 4, 5} {
		wz := wz
		specs = append(specs, forecast.GridSpec{
			Name: fmt.Sprintf("ma wz=%d", wz),
			New:  func() (forecast.Forecaster, error) { return forecast.NewMovingAverage(wz) },
		})
	}
	for _, d := range []int{0, 1, 2} {
		for _, p := range []int{2, 4, 6, 8, 10} {
			d, p := d, p
			specs = append(specs, forecast.GridSpec{
				Name: fmt.Sprintf("arima p=%d d=%d", p, d),
				New:  func() (forecast.Forecaster, error) { return forecast.NewARIMA(p, d, 0) },
			})
		}
	}
	return specs
}
