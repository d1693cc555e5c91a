package forecast

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// syntheticSeries builds a noisy daily-cycle demand series resembling the
// hourly trip counts used in Table II.
func syntheticSeries(n int, seed uint64, noise float64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	out := make([]float64, n)
	for i := range out {
		hour := float64(i % 24)
		base := 100 + 60*math.Sin(2*math.Pi*hour/24) + 25*math.Sin(4*math.Pi*hour/24)
		out[i] = base + noise*rng.NormFloat64()
	}
	return out
}

func TestMovingAverageValidation(t *testing.T) {
	if _, err := NewMovingAverage(0); err == nil {
		t.Error("window 0 should error")
	}
	m, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast([]float64{1, 2, 3, 4}, 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted forecast: %v", err)
	}
	if err := m.Fit([]float64{1, 2}); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short fit: %v", err)
	}
}

func TestMovingAverageForecast(t *testing.T) {
	m, err := NewMovingAverage(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Forecast([]float64{1, 2, 3, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: mean(3,4)=3.5; step 2: mean(4,3.5)=3.75; step 3: mean(3.5,3.75)=3.625.
	want := []float64{3.5, 3.75, 3.625}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("step %d: %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := m.Forecast([]float64{1}, 1); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short history: %v", err)
	}
	if _, err := m.Forecast([]float64{1, 2}, 0); err == nil {
		t.Error("steps 0 should error")
	}
	if m.Name() != "ma-wz2" {
		t.Errorf("Name=%q", m.Name())
	}
}

func TestMovingAverageConstantSeries(t *testing.T) {
	m, _ := NewMovingAverage(4)
	series := []float64{7, 7, 7, 7, 7, 7}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	preds, err := m.Forecast(series, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p != 7 {
			t.Fatalf("constant series should predict 7, got %v", preds)
		}
	}
}

func TestARIMAValidation(t *testing.T) {
	tests := []struct {
		p, d, q int
		wantErr bool
	}{
		{2, 0, 0, false},
		{0, 1, 1, false},
		{-1, 0, 0, true},
		{0, -1, 1, true},
		{0, 0, -1, true},
		{0, 2, 0, true}, // no ARMA terms
	}
	for _, tt := range tests {
		_, err := NewARIMA(tt.p, tt.d, tt.q)
		if (err != nil) != tt.wantErr {
			t.Errorf("NewARIMA(%d,%d,%d) err=%v, wantErr=%v", tt.p, tt.d, tt.q, err, tt.wantErr)
		}
	}
}

func TestARIMANotFitted(t *testing.T) {
	a, err := NewARIMA(2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Forecast(make([]float64, 50), 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted: %v", err)
	}
}

func TestARIMARecoversAR1(t *testing.T) {
	// Generate y_t = 5 + 0.7 y_{t-1} + e with tiny noise; an AR(1) fit
	// must recover the coefficient.
	rng := rand.New(rand.NewPCG(3, 4))
	series := make([]float64, 600)
	series[0] = 15
	for i := 1; i < len(series); i++ {
		series[i] = 5 + 0.7*series[i-1] + 0.05*rng.NormFloat64()
	}
	a, err := NewARIMA(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.arCoef[0]-0.7) > 0.03 {
		t.Errorf("phi=%v, want ~0.7", a.arCoef[0])
	}
	if math.Abs(a.intercept-5) > 0.6 {
		t.Errorf("intercept=%v, want ~5", a.intercept)
	}
}

func TestARIMAWithDifferencingTracksTrend(t *testing.T) {
	// Linear trend + AR noise: ARIMA(1,1,0) should forecast the trend.
	rng := rand.New(rand.NewPCG(9, 10))
	series := make([]float64, 300)
	for i := range series {
		series[i] = 3*float64(i) + rng.NormFloat64()
	}
	a, err := NewARIMA(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	preds, err := a.Forecast(series, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range preds {
		want := 3 * float64(len(series)+s)
		if math.Abs(p-want) > 10 {
			t.Errorf("step %d: %v, want ~%v", s, p, want)
		}
	}
}

func TestARIMAMATermsFit(t *testing.T) {
	// An MA(1) process: y_t = e_t + 0.6 e_{t-1}. ARIMA(0,0,1) should fit
	// a positive theta and forecast near the mean.
	rng := rand.New(rand.NewPCG(11, 12))
	n := 800
	e := make([]float64, n+1)
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	series := make([]float64, n)
	for i := 0; i < n; i++ {
		series[i] = 10 + e[i+1] + 0.6*e[i]
	}
	a, err := NewARIMA(0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	if a.maCoef[0] < 0.3 || a.maCoef[0] > 0.9 {
		t.Errorf("theta=%v, want ~0.6", a.maCoef[0])
	}
	preds, err := a.Forecast(series, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond one step, the MA(1) forecast reverts to the mean.
	if math.Abs(preds[2]-10) > 1.5 {
		t.Errorf("long forecast %v, want ~10", preds[2])
	}
}

func TestARIMAShortSeries(t *testing.T) {
	a, err := NewARIMA(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(make([]float64, 8)); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short fit: %v", err)
	}
}

// testLSTMConfig is Table II's 2-layer LSTM with 12-step lookback, at
// a size that trains in seconds.
func testLSTMConfig() LSTMConfig {
	return LSTMConfig{
		Hidden:       32,
		Layers:       2,
		Lookback:     12,
		Epochs:       60,
		LearningRate: 0.01,
		ClipNorm:     1.0,
		Seed:         1,
	}
}

func TestLSTMConfigValidation(t *testing.T) {
	base := testLSTMConfig()
	mutations := []func(*LSTMConfig){
		func(c *LSTMConfig) { c.Hidden = 0 },
		func(c *LSTMConfig) { c.Layers = 0 },
		func(c *LSTMConfig) { c.Lookback = 0 },
		func(c *LSTMConfig) { c.Epochs = 0 },
		func(c *LSTMConfig) { c.LearningRate = 0 },
		func(c *LSTMConfig) { c.ClipNorm = -1 },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := NewLSTM(cfg); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if _, err := NewLSTM(base); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestLSTMNotFitted(t *testing.T) {
	l, err := NewLSTM(testLSTMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Forecast(make([]float64, 20), 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted: %v", err)
	}
}

func TestLSTMLearnsSine(t *testing.T) {
	series := syntheticSeries(24*14, 7, 1)
	train, test, err := SplitTrainTest(series, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LSTMConfig{
		Hidden: 16, Layers: 1, Lookback: 12, Epochs: 25,
		LearningRate: 0.01, ClipNorm: 1, Seed: 42,
	}
	l, err := NewLSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Fit(train); err != nil {
		t.Fatal(err)
	}
	rmse, err := WalkForwardRMSE(l, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The signal swings ±85 around 100; predicting the mean scores
	// RMSE ~60. A trained LSTM must do far better.
	if rmse > 20 {
		t.Errorf("LSTM RMSE=%v, want < 20", rmse)
	}
}

func TestLSTMBeatsMovingAverageOnCycle(t *testing.T) {
	// The ordering LSTM < MA is the core claim of Table II.
	series := syntheticSeries(24*14, 21, 2)
	train, test, err := SplitTrainTest(series, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLSTM(LSTMConfig{
		Hidden: 16, Layers: 1, Lookback: 12, Epochs: 25,
		LearningRate: 0.01, ClipNorm: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Fit(train); err != nil {
		t.Fatal(err)
	}
	ma, err := NewMovingAverage(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Fit(train); err != nil {
		t.Fatal(err)
	}
	lstmRMSE, err := WalkForwardRMSE(l, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	maRMSE, err := WalkForwardRMSE(ma, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lstmRMSE >= maRMSE {
		t.Errorf("LSTM RMSE %v should beat MA RMSE %v", lstmRMSE, maRMSE)
	}
}

func TestLSTMForecastValidation(t *testing.T) {
	l, err := NewLSTM(LSTMConfig{
		Hidden: 4, Layers: 1, Lookback: 6, Epochs: 1,
		LearningRate: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Fit(syntheticSeries(60, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Forecast(make([]float64, 3), 1); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short history: %v", err)
	}
	if _, err := l.Forecast(make([]float64, 10), 0); err == nil {
		t.Error("steps 0 should error")
	}
}

func TestLSTMDeterministicAcrossRuns(t *testing.T) {
	series := syntheticSeries(24*7, 5, 1)
	build := func() []float64 {
		l, err := NewLSTM(LSTMConfig{
			Hidden: 8, Layers: 2, Lookback: 8, Epochs: 4,
			LearningRate: 0.01, ClipNorm: 1, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Fit(series); err != nil {
			t.Fatal(err)
		}
		preds, err := l.Forecast(series, 5)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWalkForwardRMSEValidation(t *testing.T) {
	ma, _ := NewMovingAverage(2)
	if err := ma.Fit([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := WalkForwardRMSE(ma, []float64{1, 2, 3}, nil, 1); err == nil {
		t.Error("empty test should error")
	}
	if _, err := WalkForwardRMSE(ma, []float64{1, 2, 3}, []float64{4}, 0); err == nil {
		t.Error("horizon 0 should error")
	}
}

func TestWalkForwardRMSEPerfectModel(t *testing.T) {
	// A model that memorises the next values scores RMSE 0.
	ma, _ := NewMovingAverage(1)
	if err := ma.Fit([]float64{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	rmse, err := WalkForwardRMSE(ma, []float64{5, 5, 5}, []float64{5, 5, 5, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rmse != 0 {
		t.Errorf("RMSE=%v, want 0", rmse)
	}
}
