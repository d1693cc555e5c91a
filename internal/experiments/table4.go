package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Table4Config parameterises the day-to-day similarity matrix.
type Table4Config struct {
	TripsWeekday, TripsWeekend int
	Seed                       uint64
	// SamplePerDay caps the per-day destination sample for the
	// O(n log n) KS test (0 means all).
	SamplePerDay int
	// PerHour follows the paper's protocol exactly: compare the same hour
	// interval across days and average the similarity over the 24 hours
	// (hours with fewer than 8 destinations on either side are skipped).
	// When false, whole-day samples are compared — less noisy at small
	// workload volumes.
	PerHour bool
	// MinHourSamples is the per-hour sample floor for PerHour mode
	// (default 8).
	MinHourSamples int
	// Workers bounds the parallel fan-out over day pairs; 0 means
	// parallel.Default(). Results are bit-identical at any value.
	Workers int
}

// DefaultTable4Config mirrors the evaluation volume.
func DefaultTable4Config() Table4Config {
	return Table4Config{TripsWeekday: 1500, TripsWeekend: 1100, Seed: 14, SamplePerDay: 250}
}

// PaperProtocolTable4Config enables the per-hour comparison at a volume
// where hourly samples are meaningful.
func PaperProtocolTable4Config() Table4Config {
	return Table4Config{
		TripsWeekday: 2600, TripsWeekend: 1900, Seed: 14,
		SamplePerDay: 0, PerHour: true, MinHourSamples: 8,
	}
}

// Table4Result holds the 7×7 similarity matrix indexed Mon..Sun (time.
// Weekday order shifted so Monday is row 0) plus block averages.
type Table4Result struct {
	// Matrix[i][j] is the similarity (%) between weekday i and j
	// (0 = Mon ... 6 = Sun); diagonal entries are 100.
	Matrix [7][7]float64 `json:"matrix"`
	// Block averages: within weekdays, within weekends, and across.
	WeekdayWeekday float64 `json:"weekdayWeekday"`
	WeekendWeekend float64 `json:"weekendWeekend"`
	Cross          float64 `json:"cross"`
}

// dayNames in Table IV order.
var dayNames = [7]string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// RunTable4 regenerates Table IV: Peacock-KS similarity between the
// destination distributions of each pair of weekdays, averaged over the
// two-week window.
func RunTable4(cfg Table4Config) (*Table4Result, error) {
	trips, err := cityWorkload(cfg.Seed, cfg.TripsWeekday, cfg.TripsWeekend)
	if err != nil {
		return nil, err
	}
	days, byDay := dataset.SplitByDay(trips)
	if cfg.MinHourSamples == 0 {
		cfg.MinHourSamples = 8
	}

	// Collect destination samples per day-of-week (Mon=0..Sun=6),
	// possibly several calendar days each. In PerHour mode each calendar
	// day holds 24 hourly samples instead of one pooled sample.
	samples := map[int][][]geo.Point{}
	hourly := map[int][][24][]geo.Point{}
	for i, day := range days {
		dow := (int(day.Weekday()) + 6) % 7 // Monday -> 0
		if cfg.PerHour {
			var byHour [24][]geo.Point
			for _, tr := range byDay[i] {
				h := tr.StartTime.Hour()
				byHour[h] = append(byHour[h], tr.End)
			}
			hourly[dow] = append(hourly[dow], byHour)
			continue
		}
		pts := dataset.EndPoints(byDay[i])
		if cfg.SamplePerDay > 0 && len(pts) > cfg.SamplePerDay {
			pts = subsample(pts, cfg.SamplePerDay, cfg.Seed+uint64(i))
		}
		samples[dow] = append(samples[dow], pts)
	}

	// The 21 upper-triangle day pairs are independent KS aggregations;
	// map over them in parallel. Within one pair the sample-pair loop
	// keeps its sequential order, so the per-pair similarity sum — a
	// float fold, hence order-sensitive — is unchanged.
	type dayPair struct{ a, b int }
	var pairs []dayPair
	for a := 0; a < 7; a++ {
		for b := a + 1; b < 7; b++ {
			pairs = append(pairs, dayPair{a, b})
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Default()
	}
	type pairOutcome struct {
		sim float64
		err error
	}
	pairSim := func(a, b int) (float64, error) {
		var sum float64
		var n int
		if cfg.PerHour {
			for _, ha := range hourly[a] {
				for _, hb := range hourly[b] {
					for h := 0; h < 24; h++ {
						if len(ha[h]) < cfg.MinHourSamples || len(hb[h]) < cfg.MinHourSamples {
							continue
						}
						d, err := stats.Peacock2DFast(ha[h], hb[h])
						if err != nil {
							return 0, fmt.Errorf("ks %s vs %s h%d: %w", dayNames[a], dayNames[b], h, err)
						}
						sum += stats.Similarity(d)
						n++
					}
				}
			}
		} else {
			for _, pa := range samples[a] {
				for _, pb := range samples[b] {
					if len(pa) == 0 || len(pb) == 0 {
						continue
					}
					d, err := stats.Peacock2DFast(pa, pb)
					if err != nil {
						return 0, fmt.Errorf("ks %s vs %s: %w", dayNames[a], dayNames[b], err)
					}
					sum += stats.Similarity(d)
					n++
				}
			}
		}
		if n == 0 {
			return 0, fmt.Errorf("experiments: no samples for %s vs %s", dayNames[a], dayNames[b])
		}
		return sum / float64(n), nil
	}
	outs := parallel.Map(workers, len(pairs), func(w, i int) pairOutcome {
		sim, err := pairSim(pairs[i].a, pairs[i].b)
		return pairOutcome{sim: sim, err: err}
	})

	res := &Table4Result{}
	var wwSum, weSum, crossSum float64
	var wwN, weN, crossN int
	for i, pr := range pairs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		a, b := pr.a, pr.b
		sim := outs[i].sim
		res.Matrix[a][b] = sim
		res.Matrix[b][a] = sim
		weekendA, weekendB := a >= 5, b >= 5
		switch {
		case !weekendA && !weekendB:
			wwSum += sim
			wwN++
		case weekendA && weekendB:
			weSum += sim
			weN++
		default:
			crossSum += sim
			crossN++
		}
	}
	for a := 0; a < 7; a++ {
		res.Matrix[a][a] = 100
	}
	if wwN > 0 {
		res.WeekdayWeekday = wwSum / float64(wwN)
	}
	if weN > 0 {
		res.WeekendWeekend = weSum / float64(weN)
	}
	if crossN > 0 {
		res.Cross = crossSum / float64(crossN)
	}
	return res, nil
}

func subsample(pts []geo.Point, n int, seed uint64) []geo.Point {
	rng := stats.NewRNG(seed)
	idx := rng.Perm(len(pts))[:n]
	out := make([]geo.Point, n)
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}

// Render writes the similarity matrix.
func (r *Table4Result) Render(w io.Writer) {
	fprintf(w, "Table IV — similarity (%%) between daily request distributions\n")
	rule(w, 64)
	fprintf(w, "%5s", "")
	for _, n := range dayNames {
		fprintf(w, "%7s", n)
	}
	fprintf(w, "\n")
	for a := 0; a < 7; a++ {
		fprintf(w, "%-5s", dayNames[a])
		for b := 0; b < 7; b++ {
			if a == b {
				fprintf(w, "%7s", "-")
				continue
			}
			fprintf(w, "%7.1f", r.Matrix[a][b])
		}
		fprintf(w, "\n")
	}
	rule(w, 64)
	fprintf(w, "weekday-weekday avg: %.1f%%   weekend-weekend avg: %.1f%%   cross avg: %.1f%%\n",
		r.WeekdayWeekday, r.WeekendWeekend, r.Cross)
	fprintf(w, "(paper: weekday block ≈ 90-97%%, weekend block ≈ 89%%, cross ≈ 58-79%%)\n")
}

// workloadDayOfWeek reports the weekday of the i-th generated day.
func workloadDayOfWeek(dayIdx int) time.Weekday {
	return workloadStart.AddDate(0, 0, dayIdx).Weekday()
}
