package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/forecast"
)

// Table2Config parameterises the prediction-engine comparison.
type Table2Config struct {
	// Workload volume.
	TripsWeekday, TripsWeekend int
	Seed                       uint64
	// LSTM grid.
	Layers []int
	Backs  []int
	Hidden int
	Epochs int
	// MA and ARIMA grids.
	Windows []int
	Ps      []int
	Ds      []int
	// Horizon is the multi-step forecast depth ("next 1 to 6 hours").
	Horizon int
	// Workers bounds the parallel fan-out of the model grid; 0 means
	// parallel.Default(). Results are bit-identical at any value.
	Workers int
}

// DefaultTable2Config mirrors the paper's Table II grid at a size that
// trains in tens of seconds.
func DefaultTable2Config() Table2Config {
	return Table2Config{
		TripsWeekday: 2400,
		TripsWeekend: 1700,
		Seed:         12,
		Layers:       []int{1, 2, 3},
		Backs:        []int{24, 12, 6, 3, 1},
		Hidden:       24,
		Epochs:       30,
		Windows:      []int{1, 2, 3, 4, 5},
		Ps:           []int{2, 4, 6, 8, 10},
		Ds:           []int{0, 1, 2},
		Horizon:      6,
	}
}

// QuickTable2Config shrinks the grid for a fast pass.
func QuickTable2Config() Table2Config {
	cfg := DefaultTable2Config()
	cfg.Layers = []int{1, 2}
	cfg.Backs = []int{12, 3}
	cfg.Hidden = 12
	cfg.Epochs = 10
	cfg.Windows = []int{1, 3, 5}
	cfg.Ps = []int{2, 6}
	cfg.Ds = []int{0, 1}
	return cfg
}

// Table2Cell is one model's walk-forward RMSE.
type Table2Cell struct {
	Model string  `json:"model"`
	RMSE  float64 `json:"rmse"`
}

// Table2Result holds every grid cell plus the winners.
type Table2Result struct {
	LSTM  map[int]map[int]float64 `json:"lstm"`  // layers -> back -> RMSE
	MA    map[int]float64         `json:"ma"`    // window -> RMSE
	ARIMA map[int]map[int]float64 `json:"arima"` // d -> p -> RMSE

	BestLSTM  Table2Cell `json:"bestLstm"`
	BestMA    Table2Cell `json:"bestMa"`
	BestARIMA Table2Cell `json:"bestArima"`
	// ImprovementPct is the best LSTM's RMSE improvement over the best
	// statistical baseline (paper: ~30%).
	ImprovementPct float64 `json:"improvementPct"`
}

// RunTable2 regenerates Table II: walk-forward RMSE of LSTM vs MA vs
// ARIMA on the hourly demand series.
func RunTable2(cfg Table2Config) (*Table2Result, error) {
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("experiments: horizon %d < 1", cfg.Horizon)
	}
	trips, err := cityWorkload(cfg.Seed, cfg.TripsWeekday, cfg.TripsWeekend)
	if err != nil {
		return nil, err
	}
	series := dataset.HourlySeries(trips, workloadStart, 14*24)
	train, test, err := forecast.SplitTrainTest(series, 0.75)
	if err != nil {
		return nil, err
	}

	res := &Table2Result{
		LSTM:  map[int]map[int]float64{},
		MA:    map[int]float64{},
		ARIMA: map[int]map[int]float64{},
	}

	// Each grid is a parallel map over independent candidates: every
	// LSTM cell owns its fixed seed (derived from layers and back, never
	// from evaluation order), so fanning the sweep out changes no RNG
	// draws. forecast.GridSearch returns the first strict minimum —
	// identical to the sequential scan's winner.
	var lstmSpecs []forecast.GridSpec
	for _, layers := range cfg.Layers {
		res.LSTM[layers] = map[int]float64{}
		for _, back := range cfg.Backs {
			layers, back := layers, back
			lstmSpecs = append(lstmSpecs, forecast.GridSpec{
				Name: fmt.Sprintf("lstm %d-layer back=%d", layers, back),
				New: func() (forecast.Forecaster, error) {
					return forecast.NewLSTM(forecast.LSTMConfig{
						Hidden: cfg.Hidden, Layers: layers, Lookback: back,
						Epochs: cfg.Epochs, LearningRate: 0.01, ClipNorm: 1,
						Seed: cfg.Seed + uint64(layers*100+back),
					})
				},
			})
		}
	}
	lstmRMSE, lstmBest, err := forecast.GridSearch(cfg.Workers, lstmSpecs, train, test, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	for idx, layers := range cfg.Layers {
		for jdx, back := range cfg.Backs {
			res.LSTM[layers][back] = lstmRMSE[idx*len(cfg.Backs)+jdx]
		}
	}
	res.BestLSTM = Table2Cell{Model: lstmSpecs[lstmBest].Name, RMSE: lstmRMSE[lstmBest]}

	var maSpecs []forecast.GridSpec
	for _, wz := range cfg.Windows {
		wz := wz
		maSpecs = append(maSpecs, forecast.GridSpec{
			Name: fmt.Sprintf("ma wz=%d", wz),
			New: func() (forecast.Forecaster, error) {
				return forecast.NewMovingAverage(wz)
			},
		})
	}
	maRMSE, maBest, err := forecast.GridSearch(cfg.Workers, maSpecs, train, test, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	for idx, wz := range cfg.Windows {
		res.MA[wz] = maRMSE[idx]
	}
	res.BestMA = Table2Cell{Model: maSpecs[maBest].Name, RMSE: maRMSE[maBest]}

	var arimaSpecs []forecast.GridSpec
	for _, d := range cfg.Ds {
		res.ARIMA[d] = map[int]float64{}
		for _, p := range cfg.Ps {
			d, p := d, p
			arimaSpecs = append(arimaSpecs, forecast.GridSpec{
				Name: fmt.Sprintf("arima p=%d d=%d", p, d),
				New: func() (forecast.Forecaster, error) {
					return forecast.NewARIMA(p, d, 0)
				},
			})
		}
	}
	arimaRMSE, arimaBest, err := forecast.GridSearch(cfg.Workers, arimaSpecs, train, test, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	for idx, d := range cfg.Ds {
		for jdx, p := range cfg.Ps {
			res.ARIMA[d][p] = arimaRMSE[idx*len(cfg.Ps)+jdx]
		}
	}
	res.BestARIMA = Table2Cell{Model: arimaSpecs[arimaBest].Name, RMSE: arimaRMSE[arimaBest]}

	bestStat := res.BestMA.RMSE
	if res.BestARIMA.RMSE < bestStat {
		bestStat = res.BestARIMA.RMSE
	}
	res.ImprovementPct = 100 * (bestStat - res.BestLSTM.RMSE) / bestStat
	return res, nil
}

// Render writes the Table II grids. Row and column sets are the sorted
// unions of the grid keys — never the keys of one arbitrary map entry —
// so the layout cannot depend on map iteration order and cannot
// misalign columns if inner maps ever diverge.
func (r *Table2Result) Render(w io.Writer) {
	fprintf(w, "Table II — RMSE of prediction algorithms (walk-forward, multi-hour horizon)\n")
	rule(w, 72)
	fprintf(w, "LSTM (rows: layers, cols: back)\n")
	backs := sortedInnerKeys(r.LSTM)
	sort.Sort(sort.Reverse(sort.IntSlice(backs)))
	fprintf(w, "%8s", "")
	for _, b := range backs {
		fprintf(w, " back=%-5d", b)
	}
	fprintf(w, "\n")
	layers := sortedKeys(r.LSTM)
	for _, l := range layers {
		fprintf(w, "%d-layer ", l)
		for _, b := range backs {
			fprintf(w, " %-10.1f", r.LSTM[l][b])
		}
		fprintf(w, "\n")
	}
	fprintf(w, "MA\n")
	wzs := sortedKeys(r.MA)
	for _, wz := range wzs {
		fprintf(w, "  wz=%d: %.1f\n", wz, r.MA[wz])
	}
	fprintf(w, "ARIMA (rows: d, cols: p)\n")
	ds := sortedKeys(r.ARIMA)
	ps := sortedInnerKeys(r.ARIMA)
	fprintf(w, "%6s", "")
	for _, p := range ps {
		fprintf(w, " p=%-7d", p)
	}
	fprintf(w, "\n")
	for _, d := range ds {
		fprintf(w, "d=%d   ", d)
		for _, p := range ps {
			fprintf(w, " %-9.1f", r.ARIMA[d][p])
		}
		fprintf(w, "\n")
	}
	rule(w, 72)
	fprintf(w, "best LSTM : %-28s RMSE %.1f\n", r.BestLSTM.Model, r.BestLSTM.RMSE)
	fprintf(w, "best MA   : %-28s RMSE %.1f\n", r.BestMA.Model, r.BestMA.RMSE)
	fprintf(w, "best ARIMA: %-28s RMSE %.1f\n", r.BestARIMA.Model, r.BestARIMA.RMSE)
	fprintf(w, "LSTM improvement over best statistical baseline: %.0f%% (paper: ~30%%)\n",
		r.ImprovementPct)
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// sortedInnerKeys returns the ascending union of a grid's inner-map
// keys, so a column set derived from it covers every row.
func sortedInnerKeys(grid map[int]map[int]float64) []int {
	seen := map[int]bool{}
	var keys []int
	for _, row := range grid {
		for k := range row {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Ints(keys)
	return keys
}

// Fig8Config parameterises the actual-vs-predicted series figure.
type Fig8Config struct {
	Table2 Table2Config
}

// DefaultFig8Config uses the Table II workload with the best LSTM shape.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Table2: DefaultTable2Config()}
}

// QuickFig8Config trains on the quick Table II workload.
func QuickFig8Config() Fig8Config {
	return Fig8Config{Table2: QuickTable2Config()}
}

// Fig8Result carries one weekday and one weekend day of hourly actual and
// predicted request counts.
type Fig8Result struct {
	WeekdayActual    []float64 `json:"weekdayActual"`
	WeekdayPredicted []float64 `json:"weekdayPredicted"`
	WeekendActual    []float64 `json:"weekendActual"`
	WeekendPredicted []float64 `json:"weekendPredicted"`
	WeekdayRMSE      float64   `json:"weekdayRmse"`
	WeekendRMSE      float64   `json:"weekendRmse"`
}

// RunFig8 regenerates Fig. 8: a 2-layer back-12 LSTM's one-step
// predictions across one test weekday and one test weekend day.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	trips, err := cityWorkload(cfg.Table2.Seed, cfg.Table2.TripsWeekday, cfg.Table2.TripsWeekend)
	if err != nil {
		return nil, err
	}
	series := dataset.HourlySeries(trips, workloadStart, 14*24)
	// Train on the first 10 days; the test window (days 11–14, May 20–23)
	// contains both weekend (Sat 20, Sun 21) and weekday (Mon 22, Tue 23)
	// days.
	const trainHours = 10 * 24
	train := series[:trainHours]
	model, err := forecast.NewLSTM(forecast.LSTMConfig{
		Hidden: cfg.Table2.Hidden, Layers: 2, Lookback: 12,
		Epochs: cfg.Table2.Epochs, LearningRate: 0.01, ClipNorm: 1,
		Seed: cfg.Table2.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := model.Fit(train); err != nil {
		return nil, err
	}

	predictDay := func(dayIdx int) (actual, predicted []float64, err error) {
		history := append([]float64(nil), series[:dayIdx*24]...)
		for h := 0; h < 24; h++ {
			preds, err := model.Forecast(history, 1)
			if err != nil {
				return nil, nil, err
			}
			predicted = append(predicted, preds[0])
			actual = append(actual, series[dayIdx*24+h])
			history = append(history, series[dayIdx*24+h])
		}
		return actual, predicted, nil
	}

	// Day indices: generation starts Wed May 10 (day 0); day 10 is
	// Sat May 20 (weekend), day 12 is Mon May 22 (weekday).
	res := &Fig8Result{}
	weekendDay, weekdayDay := 10, 12
	if !isWeekend(weekendDay) || isWeekend(weekdayDay) {
		return nil, fmt.Errorf("experiments: fig8 day classification drifted")
	}
	res.WeekendActual, res.WeekendPredicted, err = predictDay(weekendDay)
	if err != nil {
		return nil, err
	}
	res.WeekdayActual, res.WeekdayPredicted, err = predictDay(weekdayDay)
	if err != nil {
		return nil, err
	}
	res.WeekdayRMSE = rmseOf(res.WeekdayPredicted, res.WeekdayActual)
	res.WeekendRMSE = rmseOf(res.WeekendPredicted, res.WeekendActual)
	return res, nil
}

func isWeekend(dayIdx int) bool {
	wd := workloadStart.AddDate(0, 0, dayIdx).Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

func rmseOf(pred, actual []float64) float64 {
	var sum float64
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	if len(pred) == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// Render writes both day panels hour by hour.
func (r *Fig8Result) Render(w io.Writer) {
	fprintf(w, "Fig. 8 — actual vs predicted hourly requests (2-layer LSTM, back=12)\n")
	rule(w, 64)
	panel := func(name string, actual, predicted []float64, rmse float64) {
		fprintf(w, "%s (RMSE %.1f)\n", name, rmse)
		fprintf(w, "%6s %10s %10s\n", "hour", "actual", "predicted")
		for h := range actual {
			fprintf(w, "%6d %10.0f %10.1f\n", h, actual[h], predicted[h])
		}
	}
	panel("weekday", r.WeekdayActual, r.WeekdayPredicted, r.WeekdayRMSE)
	panel("weekend", r.WeekendActual, r.WeekendPredicted, r.WeekendRMSE)
}
