package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRMSE(t *testing.T) {
	tests := []struct {
		name      string
		pred, act []float64
		want      float64
		wantErr   bool
	}{
		{"mismatch", []float64{1}, []float64{1, 2}, 0, true},
		{"empty", nil, nil, 0, true},
		{"perfect", []float64{1, 2, 3}, []float64{1, 2, 3}, 0, false},
		{"constant offset", []float64{2, 3, 4}, []float64{1, 2, 3}, 1, false},
		{"known", []float64{0, 0}, []float64{3, 4}, math.Sqrt(12.5), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := RMSE(tt.pred, tt.act)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
			if err == nil && math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMAELessOrEqualRMSE(t *testing.T) {
	// MAE <= RMSE always (Jensen); property over random vectors.
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = xs[i] * 0.5
		}
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		mae, err1 := MAE(xs, ys)
		rmse, err2 := RMSE(xs, ys)
		if err1 != nil || err2 != nil {
			return false
		}
		return mae <= rmse+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean=%v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance=%v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev=%v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty slices should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v)=%v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("out-of-range q should error")
	}
	single, err := Quantile([]float64{42}, 0.9)
	if err != nil || single != 42 {
		t.Errorf("single element: %v, %v", single, err)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMinMax(t *testing.T) {
	minVal, maxVal, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if minVal != -1 || maxVal != 7 {
		t.Errorf("got (%v,%v), want (-1,7)", minVal, maxVal)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty: %v", err)
	}
}
