package matrix

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestGemv(t *testing.T) {
	w := mustFromSlice(t, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	Gemv(dst, w, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Errorf("Gemv wrong: %v", dst)
	}
	GemvAdd(dst, w, x)
	if dst[0] != -4 || dst[1] != -4 {
		t.Errorf("GemvAdd wrong: %v", dst)
	}
}

func TestGemvTAddMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	w := Randomized(4, 3, 1, rng)
	x := []float64{0.5, -1, 2, 0}
	got := make([]float64, 3)
	GemvTAdd(got, w, x)
	want := make([]float64, 3)
	Gemv(want, transpose(w), x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("GemvTAdd[%d]=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	w := New(2, 3)
	AddOuter(w, []float64{1, 2}, []float64{3, 4, 5})
	want := []float64{3, 4, 5, 6, 8, 10}
	for i, v := range want {
		if w.Data[i] != v {
			t.Errorf("AddOuter data[%d]=%v, want %v", i, w.Data[i], v)
		}
	}
}

func TestAddVec(t *testing.T) {
	dst := []float64{1, 2}
	AddVec(dst, []float64{10, 20})
	if dst[0] != 11 || dst[1] != 22 {
		t.Errorf("AddVec wrong: %v", dst)
	}
}

func TestVectorShapePanics(t *testing.T) {
	w := New(2, 3)
	cases := []struct {
		name string
		f    func()
	}{
		{"gemv dst", func() { Gemv(make([]float64, 3), w, make([]float64, 3)) }},
		{"gemv x", func() { Gemv(make([]float64, 2), w, make([]float64, 2)) }},
		{"gemvT", func() { GemvTAdd(make([]float64, 2), w, make([]float64, 2)) }},
		{"outer", func() { AddOuter(w, make([]float64, 3), make([]float64, 3)) }},
		{"addvec", func() { AddVec(make([]float64, 1), make([]float64, 2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			tc.f()
		})
	}
}
