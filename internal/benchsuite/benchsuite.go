// Package benchsuite is the registry of gated compute sections: the
// offline solver, the Peacock KS statistic, the forecasting grid and CSV
// ingest, measured under the names and inputs of BENCH_compute.json.
// `esharing-bench benchjson` and `esharing-bench compare` measure them
// through Measure; the repository's BenchmarkSection runs the same
// functions under `go test -bench`.
//
// Each section builds its input the first time it runs, outside the
// timed loop, and sections that share an input share one build.
package benchsuite

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/stats"
)

// Section is one gated compute section.
type Section struct {
	Name  string
	Bench func(b *testing.B)
}

// Record is one section's measured cost. AllocBytes and Extra (custom
// metrics such as rows/s from b.ReportMetric) are informational: the
// compare gate diffs only Ns.
type Record struct {
	Section    string             `json:"section"`
	Ns         int64              `json:"ns"`
	Allocs     int64              `json:"allocs"`
	AllocBytes int64              `json:"allocBytes,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Sections returns the gated sections in BENCH_compute.json order.
func Sections() []Section {
	return slices.Clone(sections)
}

// Measure runs each section once through testing.Benchmark. A section
// that completes no iteration — it called b.Fatal or b.Skip — is an
// error naming it, never a zero-ns record.
func Measure(sections []Section) ([]Record, error) {
	// Outside `go test`, b.Fatal dereferences flags that only Init sets.
	testing.Init()
	records := make([]Record, 0, len(sections))
	for _, s := range sections {
		r := testing.Benchmark(s.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("section %s failed: no iteration completed", s.Name)
		}
		records = append(records, Record{
			Section:    s.Name,
			Ns:         r.NsPerOp(),
			Allocs:     r.AllocsPerOp(),
			AllocBytes: r.AllocedBytesPerOp(),
			Extra:      r.Extra,
		})
	}
	return records, nil
}

var sections = slices.Concat(
	// N=200/500 predate the incremental engine; N=2000/10000 exist
	// because the engine made them feasible — the committed baseline is
	// the proof the repository stays at city scale. history=7d is the
	// instance esharing-server plans at every start with its default
	// flags: its clustered demand makes it slower per demand than the
	// uniform rows, and it is the solve a restart waits for.
	[]Section{
		solverSection("solver/offline/N=200", func() (*core.Problem, error) { return benchProblem(200, 200) }),
		solverSection("solver/offline/N=500", func() (*core.Problem, error) { return benchProblem(500, 500) }),
		solverSection("solver/offline/N=2000", func() (*core.Problem, error) { return benchProblem(2000, 2000) }),
		solverSection("solver/offline/N=10000", func() (*core.Problem, error) { return benchProblem(10000, 10000) }),
		solverSection("solver/offline/history=7d", historyProblem),
		peacockSection(100),
		peacockSection(500),
	},
	// The drift test Algorithm 2 runs every TestEvery requests, at the
	// server's default 7-day history size and at Mobike scale.
	driftSections(12800, true),
	driftSections(1000000, false),
	[]Section{{Name: "grid/forecast", Bench: benchGrid}},
	ingestSections(),
)

// A fixtureGroup owns the inputs its sections share. One group holds
// its inputs at a time: the sections of a group run back to back, so
// each input is built once, and no section's GC pacing depends on the
// inputs of the sections measured before it (a section that allocated
// ~53 MB per op once measured ~30% faster with every earlier input live).
type fixtureGroup struct{ drop []func() }

// heldGroup is the group whose inputs are built. Benchmarks run one at a
// time, so it needs no lock.
var heldGroup *fixtureGroup

// lazy returns a getter that builds the input on first use, keeps it
// until another group's input is requested, and restarts the timer, so
// neither the build nor its allocations are measured.
func lazy[T any](g *fixtureGroup, build func(b *testing.B) (T, error)) func(b *testing.B) T {
	var v T
	built := false
	g.drop = append(g.drop, func() {
		var zero T
		v, built = zero, false
	})
	return func(b *testing.B) T {
		if heldGroup != g {
			if heldGroup != nil {
				for _, drop := range heldGroup.drop {
					drop()
				}
			}
			heldGroup = g
		}
		if !built {
			var err error
			if v, err = build(b); err != nil {
				b.Fatal(err)
			}
			built = true
		}
		b.ResetTimer()
		return v
	}
}

func solverSection(name string, build func() (*core.Problem, error)) Section {
	problem := lazy(new(fixtureGroup), func(*testing.B) (*core.Problem, error) { return build() })
	return Section{Name: name, Bench: func(b *testing.B) {
		p := problem(b)
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveOffline(p); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// benchProblem is clustered plus scattered demand with heterogeneous
// opening costs.
func benchProblem(seed uint64, n int) (*core.Problem, error) {
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
	return core.NewProblem(demands, opening)
}

// historyProblem is esharing-server's start-up instance at its default
// flags: the 7-day synthetic history at seed 1, aggregated into 100 m
// cells, every station costing 10000.
func historyProblem() (*core.Problem, error) {
	trips, err := dataset.Generate(dataset.Config{Days: 7, Seed: 1})
	if err != nil {
		return nil, err
	}
	return core.HistoryProblem(geo.FoldPoints(dataset.EndPoints(trips)), 100, 10000)
}

// peacockSection times the statistic on two n-point uniform samples
// from overlapping boxes.
func peacockSection(n int) Section {
	samples := lazy(new(fixtureGroup), func(*testing.B) ([2][]geo.Point, error) {
		rng := stats.NewRNG(uint64(n))
		return [2][]geo.Point{
			stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 1000)}, n),
			stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(250, 250), 1000)}, n),
		}, nil
	})
	return Section{Name: fmt.Sprintf("ks/peacock2dfast/n=%d", n), Bench: func(b *testing.B) {
		s := samples(b)
		for i := 0; i < b.N; i++ {
			if _, err := stats.Peacock2DFast(s[0], s[1]); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// driftSections time a 100-point window from a shifted box against a
// uniform history of h points. ks/reference is the per-test query the
// placer runs on a prebuilt KSReference, and ks/reference-build the
// one-off build it pays on its first test. Both start from the history
// folded into places, as the placer holds it; the fold is paid when the
// history is loaded.
func driftSections(h int, withBuild bool) []Section {
	type drift struct {
		window []geo.Point
		places geo.Multiset // the history folded, as the placer holds it
	}
	g := new(fixtureGroup)
	samples := lazy(g, func(*testing.B) (drift, error) {
		rng := stats.NewRNG(uint64(h))
		hist := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(0, 0), 5000)}, h)
		window := stats.SamplePoints(rng, stats.UniformDist{Box: geo.Square(geo.Pt(1000, 1000), 5000)}, 100)
		return drift{window, geo.FoldPoints(hist)}, nil
	})
	ref := lazy(g, func(b *testing.B) (*stats.KSReference, error) { return stats.NewKSReference(samples(b).places) })
	out := []Section{
		{Name: fmt.Sprintf("ks/reference/H=%d", h), Bench: func(b *testing.B) {
			r, window := ref(b), samples(b).window
			for i := 0; i < b.N; i++ {
				if _, err := r.Statistic(window); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	if withBuild {
		out = append(out, Section{Name: fmt.Sprintf("ks/reference-build/H=%d", h), Bench: func(b *testing.B) {
			places := samples(b).places
			for i := 0; i < b.N; i++ {
				if _, err := stats.NewKSReference(places); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}
	return out
}

// gridInput is the forecasting grid's series and model specs.
type gridInput struct {
	train, test []float64
	specs       []forecast.GridSpec
}

var gridFixture = lazy(new(fixtureGroup), func(*testing.B) (gridInput, error) {
	// A small deterministic hourly series with daily seasonality.
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
		return gridInput{}, err
	}
	// An MA+ARIMA sweep — the statistical half of the Table II grid,
	// heavy enough to exercise the parallel fan-out without LSTM
	// training times.
	var specs []forecast.GridSpec
	for _, wz := range []int{1, 2, 3, 4, 5} {
		specs = append(specs, forecast.GridSpec{
			Name: fmt.Sprintf("ma wz=%d", wz),
			New:  func() (forecast.Forecaster, error) { return forecast.NewMovingAverage(wz) },
		})
	}
	for _, d := range []int{0, 1, 2} {
		for _, p := range []int{2, 4, 6, 8, 10} {
			specs = append(specs, forecast.GridSpec{
				Name: fmt.Sprintf("arima p=%d d=%d", p, d),
				New:  func() (forecast.Forecaster, error) { return forecast.NewARIMA(p, d, 0) },
			})
		}
	}
	return gridInput{train, test, specs}, nil
})

func benchGrid(b *testing.B) {
	g := gridFixture(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := forecast.GridSearch(0, g.specs, g.train, g.test, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestRows is the row count of the ingest fixture, part of the ingest
// section names; the fixture refuses to run if the generator drifts.
const ingestRows = 72154

// ingestCSV is a multi-day synthetic Mobike CSV held in memory so the
// ingest sections measure parsing, not disk.
var ingestCSV = lazy(new(fixtureGroup), func(*testing.B) ([]byte, error) {
	var buf bytes.Buffer
	rows := 0
	cw := dataset.NewCSVWriter(&buf)
	if err := cw.WriteHeader(); err != nil {
		return nil, err
	}
	cfg := dataset.Config{Days: 5, TripsWeekday: 16000, TripsWeekend: 12000, Bikes: 400, Seed: 11}
	err := dataset.GenerateStream(cfg, func(_ int, trips []dataset.Trip) error {
		rows += len(trips)
		dataset.FillGeohashes(cfg, trips)
		return cw.WriteTrips(trips)
	})
	if err != nil {
		return nil, err
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	if rows != ingestRows {
		return nil, fmt.Errorf("ingest fixture has %d rows, section names say %d", rows, ingestRows)
	}
	return buf.Bytes(), nil
})

// ingestSections time the server's start-up path from CSV to demand
// grid on the in-memory CSV. It defers to parallel.Default, so `compare
// -parallelism 1` pins it to one worker. BenchmarkReadCSV in
// internal/dataset times the materialising encoding/csv reader on the
// same CSV.
func ingestSections() []Section {
	return []Section{{Name: fmt.Sprintf("ingest/demand/rows=%d", ingestRows), Bench: func(b *testing.B) {
		data := ingestCSV(b)
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			ends, err := dataset.ReadEndPoints(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if ends.Total() != ingestRows {
				b.Fatalf("read %d end points, want %d", ends.Total(), ingestRows)
			}
			demands, err := core.AggregateHistory(ends, 100)
			if err != nil {
				b.Fatal(err)
			}
			if len(demands) == 0 {
				b.Fatal("empty demand grid")
			}
		}
		b.ReportMetric(ingestRows*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}}}
}
