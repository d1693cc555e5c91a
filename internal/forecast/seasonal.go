package forecast

import (
	"fmt"
)

// SeasonalNaive forecasts the value observed one season earlier
// (period 24 for hourly demand repeats the same hour yesterday). It is
// the standard sanity baseline for periodic series: a learned model that
// cannot beat it has learned nothing beyond the cycle.
type SeasonalNaive struct {
	Period int
	fitted bool
}

var _ Forecaster = (*SeasonalNaive)(nil)

// NewSeasonalNaive validates the period and returns the model.
func NewSeasonalNaive(period int) (*SeasonalNaive, error) {
	if period < 1 {
		return nil, fmt.Errorf("forecast: seasonal period %d < 1", period)
	}
	return &SeasonalNaive{Period: period}, nil
}

// Fit implements Forecaster.
func (s *SeasonalNaive) Fit(series []float64) error {
	if len(series) < s.Period {
		return fmt.Errorf("%w: %d points for period %d", ErrSeriesTooShort, len(series), s.Period)
	}
	s.fitted = true
	return nil
}

// Forecast implements Forecaster: step k predicts
// history[len-Period+k mod Period] from the final season.
func (s *SeasonalNaive) Forecast(history []float64, steps int) ([]float64, error) {
	if !s.fitted {
		return nil, ErrNotFitted
	}
	if steps < 1 {
		return nil, fmt.Errorf("forecast: steps %d < 1", steps)
	}
	if len(history) < s.Period {
		return nil, fmt.Errorf("%w: history %d for period %d", ErrSeriesTooShort, len(history), s.Period)
	}
	season := history[len(history)-s.Period:]
	out := make([]float64, steps)
	for k := 0; k < steps; k++ {
		out[k] = season[k%s.Period]
	}
	return out, nil
}

// Name implements Forecaster.
func (s *SeasonalNaive) Name() string { return fmt.Sprintf("seasonal-naive-%d", s.Period) }
