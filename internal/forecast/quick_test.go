package forecast

import (
	"math"
	"testing"
	"testing/quick"
)

func cleanSeries(raw []int16, minLen int) []float64 {
	if len(raw) < minLen {
		return nil
	}
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v) / 8
	}
	return out
}

func TestQuickDifferenceIntegrateRoundTrip(t *testing.T) {
	property := func(raw []int16, dRaw uint8) bool {
		series := cleanSeries(raw, 8)
		if series == nil {
			return true
		}
		d := int(dRaw % 3)
		split := len(series) / 2
		if split <= d {
			return true
		}
		history, future := series[:split], series[split:]
		diffedAll, _, err := Difference(series, d)
		if err != nil {
			return false
		}
		diffedFuture := diffedAll[len(diffedAll)-len(future):]
		last, err := LastAtLevels(history, d)
		if err != nil {
			return false
		}
		got := Integrate(diffedFuture, last)
		for i := range future {
			if math.Abs(got[i]-future[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickScalerRoundTrip(t *testing.T) {
	property := func(raw []int16, v int16) bool {
		series := cleanSeries(raw, 1)
		if series == nil {
			return true
		}
		s := FitScaler(series)
		x := float64(v)
		back := s.Invert(s.Transform(x))
		return math.Abs(back-x) < 1e-6*(1+math.Abs(x))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickWindowsAlignment(t *testing.T) {
	property := func(raw []int16, lbRaw uint8) bool {
		series := cleanSeries(raw, 4)
		if series == nil {
			return true
		}
		lookback := int(lbRaw)%(len(series)-1) + 1
		inputs, targets, err := Windows(series, lookback)
		if err != nil {
			return false
		}
		if len(inputs) != len(series)-lookback {
			return false
		}
		for i := range inputs {
			if len(inputs[i]) != lookback {
				return false
			}
			if targets[i] != series[i+lookback] {
				return false
			}
			if inputs[i][lookback-1] != series[i+lookback-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
