// Prediction: the forecast engine in isolation — train Table II's three
// models (Moving Average, ARIMA and the LSTM) on two weeks of synthetic
// hourly demand and compare their walk-forward RMSE.
package main

import (
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/forecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	trips, err := dataset.Generate(dataset.Config{
		Days: 14, TripsWeekday: 2000, TripsWeekend: 1400, Seed: 8,
	})
	if err != nil {
		return err
	}
	series := dataset.HourlySeries(trips, trips[0].StartTime.Truncate(24*3600e9), 14*24)
	train, test, err := forecast.SplitTrainTest(series, 0.75)
	if err != nil {
		return err
	}
	fmt.Printf("hourly demand series: %d train hours, %d test hours\n\n", len(train), len(test))

	models := []forecast.Forecaster{}
	if m, err := forecast.NewMovingAverage(3); err == nil {
		models = append(models, m)
	}
	if m, err := forecast.NewARIMA(8, 0, 0); err == nil {
		models = append(models, m)
	}
	if m, err := forecast.NewLSTM(forecast.LSTMConfig{
		Hidden: 24, Layers: 2, Lookback: 12, Epochs: 30,
		LearningRate: 0.01, ClipNorm: 1, Seed: 3,
	}); err == nil {
		models = append(models, m)
	}

	fmt.Printf("%-24s %12s\n", "model", "RMSE (1h)")
	best, bestRMSE := "", 1e18
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			return fmt.Errorf("%s fit: %w", m.Name(), err)
		}
		rmse, err := forecast.WalkForwardRMSE(m, train, test, 1)
		if err != nil {
			return fmt.Errorf("%s eval: %w", m.Name(), err)
		}
		fmt.Printf("%-24s %12.1f\n", m.Name(), rmse)
		if rmse < bestRMSE {
			best, bestRMSE = m.Name(), rmse
		}
	}
	fmt.Printf("\nwinner: %s (paper's Table II winner: the 2-layer back-12 LSTM)\n", best)

	// Multi-step forecast for the next 6 hours, Fig. 3 step 1.
	lstm := models[len(models)-1]
	next, err := lstm.Forecast(series, 6)
	if err != nil {
		return err
	}
	fmt.Printf("next 6 hours: ")
	for _, v := range next {
		fmt.Printf("%.0f ", v)
	}
	fmt.Println()
	return nil
}
