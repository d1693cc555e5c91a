package forecast

import (
	"errors"
	"testing"
)

func TestNewSeasonalNaiveValidation(t *testing.T) {
	if _, err := NewSeasonalNaive(0); err == nil {
		t.Error("period 0 should error")
	}
}

func TestSeasonalNaiveExactOnPeriodicSeries(t *testing.T) {
	s, err := NewSeasonalNaive(24)
	if err != nil {
		t.Fatal(err)
	}
	series := syntheticSeries(24*7, 3, 0) // noiseless daily cycle
	if err := s.Fit(series); err != nil {
		t.Fatal(err)
	}
	rmse, err := WalkForwardRMSE(s, series[:24*5], series[24*5:], 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 1e-9 {
		t.Errorf("seasonal naive RMSE %v on a perfect cycle, want 0", rmse)
	}
}

func TestSeasonalNaiveLifecycleErrors(t *testing.T) {
	s, err := NewSeasonalNaive(24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Forecast(make([]float64, 30), 1); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted: %v", err)
	}
	if err := s.Fit(make([]float64, 5)); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short fit: %v", err)
	}
	if err := s.Fit(make([]float64, 48)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Forecast(make([]float64, 5), 1); !errors.Is(err, ErrSeriesTooShort) {
		t.Errorf("short history: %v", err)
	}
	if _, err := s.Forecast(make([]float64, 48), 0); err == nil {
		t.Error("steps 0 should error")
	}
}

func TestSeasonalNaiveWrapsAcrossSeasons(t *testing.T) {
	s, err := NewSeasonalNaive(3)
	if err != nil {
		t.Fatal(err)
	}
	history := []float64{9, 9, 9, 1, 2, 3}
	if err := s.Fit(history); err != nil {
		t.Fatal(err)
	}
	got, err := s.Forecast(history, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %v, want %v (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestLSTMBeatsSeasonalNaiveOnNoisyCycle(t *testing.T) {
	// With noise, seasonal naive copies yesterday's noise; the LSTM
	// should smooth it. This is the strongest baseline comparison in the
	// suite.
	series := syntheticSeries(24*14, 31, 8)
	train, test, err := SplitTrainTest(series, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewSeasonalNaive(24)
	if err != nil {
		t.Fatal(err)
	}
	if err := sn.Fit(train); err != nil {
		t.Fatal(err)
	}
	snRMSE, err := WalkForwardRMSE(sn, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := NewLSTM(LSTMConfig{
		Hidden: 16, Layers: 1, Lookback: 24, Epochs: 30,
		LearningRate: 0.01, ClipNorm: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lstm.Fit(train); err != nil {
		t.Fatal(err)
	}
	lstmRMSE, err := WalkForwardRMSE(lstm, train, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lstmRMSE >= snRMSE {
		t.Errorf("LSTM RMSE %.2f should beat seasonal naive %.2f", lstmRMSE, snRMSE)
	}
}
