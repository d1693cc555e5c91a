package experiments

import (
	"strings"
	"testing"
)

// The experiments in this file train models or sweep many PLP instances;
// they run in seconds-to-tens-of-seconds and are skipped under -short.

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table2 trains LSTM grids")
	}
	res, err := RunTable2(QuickTable2Config())
	if err != nil {
		t.Fatal(err)
	}
	// The Table II headline: the best LSTM beats both statistical
	// baselines.
	if res.BestLSTM.RMSE >= res.BestMA.RMSE {
		t.Errorf("best LSTM %.1f >= best MA %.1f", res.BestLSTM.RMSE, res.BestMA.RMSE)
	}
	if res.BestLSTM.RMSE >= res.BestARIMA.RMSE {
		t.Errorf("best LSTM %.1f >= best ARIMA %.1f", res.BestLSTM.RMSE, res.BestARIMA.RMSE)
	}
	if res.ImprovementPct <= 0 {
		t.Errorf("improvement %.1f%%, want positive (paper ~30%%)", res.ImprovementPct)
	}
	// back=12 must beat back=3 for the 2-layer model (the daily cycle
	// needs lookback).
	if res.LSTM[2][12] >= res.LSTM[2][3] {
		t.Errorf("2-layer back=12 RMSE %.1f >= back=3 %.1f", res.LSTM[2][12], res.LSTM[2][3])
	}
	renderNonEmpty(t, func(sb *strings.Builder) { res.Render(sb) })
}

func TestTable2Validation(t *testing.T) {
	cfg := QuickTable2Config()
	cfg.Horizon = 0
	if _, err := RunTable2(cfg); err == nil {
		t.Error("horizon 0 should error")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 trains an LSTM")
	}
	cfg := Fig8Config{Table2: QuickTable2Config()}
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WeekdayActual) != 24 || len(res.WeekendPredicted) != 24 {
		t.Fatalf("panels must span 24 hours")
	}
	// Predictions must track the scale of the actual series: RMSE well
	// below the series' dynamic range.
	var maxActual float64
	for _, v := range res.WeekdayActual {
		if v > maxActual {
			maxActual = v
		}
	}
	if res.WeekdayRMSE > maxActual/2 {
		t.Errorf("weekday RMSE %.1f vs peak %.1f — predictions not tracking", res.WeekdayRMSE, maxActual)
	}
	renderNonEmpty(t, func(sb *strings.Builder) { res.Render(sb) })
}

func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 sweeps regions and trains an LSTM")
	}
	// The ordering is asserted on a four-region average, twice the
	// quick pass's regions.
	cfg := QuickTable5Config()
	cfg.Regions = 4
	res, err := RunTable5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table V ordering by total cost:
	// offline < e-sharing (actual) < meyerson < online k-means,
	// with the predicted variant above actual.
	if !(res.Offline.TotalKm() < res.ESharingAct.TotalKm()) {
		t.Errorf("offline %.1f should lower-bound e-sharing %.1f",
			res.Offline.TotalKm(), res.ESharingAct.TotalKm())
	}
	if !(res.ESharingAct.TotalKm() < res.Meyerson.TotalKm()) {
		t.Errorf("e-sharing %.1f should beat meyerson %.1f",
			res.ESharingAct.TotalKm(), res.Meyerson.TotalKm())
	}
	if !(res.Meyerson.TotalKm() < res.OnlineKMeans.TotalKm()) {
		t.Errorf("meyerson %.1f should beat online k-means %.1f",
			res.Meyerson.TotalKm(), res.OnlineKMeans.TotalKm())
	}
	if res.ESharingAct.TotalKm() > res.ESharingPred.TotalKm() {
		t.Errorf("actual guide %.1f should beat predicted %.1f",
			res.ESharingAct.TotalKm(), res.ESharingPred.TotalKm())
	}
	// Station counts: offline fewest, online k-means most.
	if res.Offline.Stations > res.ESharingAct.Stations {
		t.Errorf("offline opens %.1f > e-sharing %.1f stations",
			res.Offline.Stations, res.ESharingAct.Stations)
	}
	if res.OnlineKMeans.Stations < res.Meyerson.Stations {
		t.Errorf("online k-means %.1f opens fewer than meyerson %.1f",
			res.OnlineKMeans.Stations, res.Meyerson.Stations)
	}
	// Average walk is a plausible human distance (paper: ~180 m).
	if res.AvgWalkPerRequestM <= 0 || res.AvgWalkPerRequestM > 500 {
		t.Errorf("avg walk %.1f m implausible", res.AvgWalkPerRequestM)
	}
	renderNonEmpty(t, func(sb *strings.Builder) { res.Render(sb) })
}

func TestTable5Validation(t *testing.T) {
	cfg := QuickTable5Config()
	cfg.Regions = 0
	if _, err := RunTable5(cfg); err == nil {
		t.Error("zero regions should error")
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table6 sweeps charging rounds")
	}
	res, err := RunTable6(DefaultTable6Config())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[float64]Table6Row{}
	for _, r := range res.Rows {
		rows[r.Alpha] = r
	}
	base := rows[0]
	for _, alpha := range []float64{0.4, 0.7, 1} {
		r := rows[alpha]
		// Incentives must cut service and delay costs and raise the
		// charged percentage.
		if r.ServiceCost >= base.ServiceCost {
			t.Errorf("alpha=%v service %.0f >= baseline %.0f", alpha, r.ServiceCost, base.ServiceCost)
		}
		if r.DelayCost >= base.DelayCost {
			t.Errorf("alpha=%v delay %.0f >= baseline %.0f", alpha, r.DelayCost, base.DelayCost)
		}
		if r.ChargedPct <= base.ChargedPct {
			t.Errorf("alpha=%v charged %.1f%% <= baseline %.1f%%", alpha, r.ChargedPct, base.ChargedPct)
		}
		if r.IncentivesPaid <= 0 {
			t.Errorf("alpha=%v paid no incentives", alpha)
		}
	}
	// Incentives paid scale with alpha; alpha=0.4 minimises total cost.
	if !(rows[0.4].IncentivesPaid < rows[0.7].IncentivesPaid &&
		rows[0.7].IncentivesPaid < rows[1].IncentivesPaid) {
		t.Errorf("incentive outlay not increasing in alpha: %v %v %v",
			rows[0.4].IncentivesPaid, rows[0.7].IncentivesPaid, rows[1].IncentivesPaid)
	}
	if res.BestAlpha != 0.4 {
		t.Errorf("best alpha %v, paper: 0.4", res.BestAlpha)
	}
	if res.SavingPct < 20 {
		t.Errorf("saving %.0f%%, want >= 20%% (paper: 47%%)", res.SavingPct)
	}
	// Fig. 11: fewer service sites and a shorter tour after incentives.
	if res.Fig11.SitesAfter >= res.Fig11.SitesBefore {
		t.Errorf("sites %d -> %d; aggregation failed", res.Fig11.SitesBefore, res.Fig11.SitesAfter)
	}
	if res.Fig11.TourAfterKm >= res.Fig11.TourBeforeKm {
		t.Errorf("tour %.1f -> %.1f km; should shrink", res.Fig11.TourBeforeKm, res.Fig11.TourAfterKm)
	}
	// Fig. 12: total cost rises with q for every alpha.
	byAlpha := map[float64][]Fig12Point{}
	for _, p := range res.Fig12 {
		byAlpha[p.Alpha] = append(byAlpha[p.Alpha], p)
	}
	for alpha, pts := range byAlpha {
		// Higher q also raises the offer value v = α(q+td)/|L_i|, which
		// can locally offset the extra service cost; require the overall
		// trend to rise and any local dip to stay small.
		if pts[len(pts)-1].TotalCost <= pts[0].TotalCost {
			t.Errorf("alpha=%v: total cost does not rise across the q sweep", alpha)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].TotalCost < 0.9*pts[i-1].TotalCost {
				t.Errorf("alpha=%v: total cost drops >10%% as q rises (%v -> %v)",
					alpha, pts[i-1].TotalCost, pts[i].TotalCost)
			}
		}
	}
	renderNonEmpty(t, func(sb *strings.Builder) { res.Render(sb) })
}

func TestTable6Validation(t *testing.T) {
	cfg := DefaultTable6Config()
	cfg.GridSide = 1
	if _, err := RunTable6(cfg); err == nil {
		t.Error("grid side 1 should error")
	}
	cfg = DefaultTable6Config()
	cfg.Alphas = []float64{0.4} // missing the alpha=0 baseline
	if _, err := RunTable6(cfg); err == nil {
		t.Error("missing alpha=0 should error")
	}
}

func TestTable4PerHourProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("per-hour table4 runs many KS tests")
	}
	// The per-hour comparison, at a volume where hourly samples are
	// meaningful.
	res, err := RunTable4(Table4Config{
		TripsWeekday: 2600, TripsWeekend: 1900, Seed: 14,
		SamplePerDay: 0, PerHour: true, MinHourSamples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's per-hour protocol must preserve the block structure.
	if res.WeekdayWeekday <= res.Cross {
		t.Errorf("per-hour weekday block %.1f%% <= cross %.1f%%", res.WeekdayWeekday, res.Cross)
	}
	if res.WeekendWeekend <= res.Cross {
		t.Errorf("per-hour weekend block %.1f%% <= cross %.1f%%", res.WeekendWeekend, res.Cross)
	}
}
