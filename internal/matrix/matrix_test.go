package matrix

import (
	"math"
	"math/rand/v2"
	"testing"
)

func mustFromSlice(t *testing.T, rows, cols int, data []float64) *Matrix {
	t.Helper()
	if rows*cols != len(data) {
		t.Fatalf("%dx%d needs %d values, got %d", rows, cols, rows*cols, len(data))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// mul, transpose and equal are the textbook definitions the optimised
// kernels (MulATB, GemvTAdd) are checked against.

// mul returns m × n as a fresh matrix.
func mul(m, n *Matrix) *Matrix {
	dst := New(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < n.Cols; j++ {
			var sum float64
			for k := 0; k < m.Cols; k++ {
				sum += m.At(i, k) * n.At(k, j)
			}
			dst.Set(i, j, sum)
		}
	}
	return dst
}

// transpose returns mᵀ as a fresh matrix.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// equal reports elementwise equality within tol.
func equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 3) should panic")
		}
	}()
	New(0, 3)
}

func TestSetAtZero(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 7)
	if m.At(1, 1) != 7 || m.At(0, 0) != 0 {
		t.Errorf("Set/At round trip: %v", m.Data)
	}
	m.Zero()
	if m.At(1, 1) != 0 {
		t.Error("Zero did not reset")
	}
}

func TestMul(t *testing.T) {
	a := mustFromSlice(t, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := mustFromSlice(t, 3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := mul(a, b)
	want := mustFromSlice(t, 2, 2, []float64{58, 64, 139, 154})
	if !equal(got, want, 1e-12) {
		t.Errorf("mul wrong: %v", got.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := Randomized(4, 4, 1, rng)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !equal(mul(a, id), a, 1e-12) || !equal(mul(id, a), a, 1e-12) {
		t.Error("identity multiplication changed matrix")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := Randomized(3, 5, 2, rng)
	if !equal(transpose(transpose(m)), m, 0) {
		t.Error("double transpose is not identity")
	}
	tr := transpose(m)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if tr.At(j, i) != m.At(i, j) {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulATB(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := Randomized(4, 3, 1, rng)
	b := Randomized(4, 2, 1, rng)
	atb := New(3, 2)
	MulATB(atb, a, b)
	if !equal(atb, mul(transpose(a), b), 1e-12) {
		t.Error("MulATB != Aᵀ×B")
	}
}

func TestClipInPlace(t *testing.T) {
	c := mustFromSlice(t, 1, 3, []float64{-10, 0.5, 10})
	c.ClipInPlace(1)
	if c.Data[0] != -1 || c.Data[1] != 0.5 || c.Data[2] != 1 {
		t.Errorf("ClipInPlace wrong: %v", c.Data)
	}
}

func TestEqualShapes(t *testing.T) {
	if equal(New(2, 2), New(2, 3), 1) {
		t.Error("different shapes should not be Equal")
	}
}

func TestSolveLinear(t *testing.T) {
	tests := []struct {
		name    string
		a       []float64
		n       int
		b       []float64
		want    []float64
		wantErr bool
	}{
		{
			name: "2x2",
			a:    []float64{2, 1, 1, 3}, n: 2,
			b:    []float64{5, 10},
			want: []float64{1, 3},
		},
		{
			name: "3x3 with pivoting",
			a:    []float64{0, 2, 1, 1, -2, -3, -1, 1, 2}, n: 3,
			b:    []float64{-8, 0, 3},
			want: []float64{-4, -5, 2},
		},
		{
			name: "singular",
			a:    []float64{1, 2, 2, 4}, n: 2,
			b:       []float64{1, 2},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := mustFromSlice(t, tt.n, tt.n, tt.a)
			got, err := SolveLinear(a, tt.b)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			for i := range tt.want {
				if math.Abs(got[i]-tt.want[i]) > 1e-9 {
					t.Errorf("x[%d]=%v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestSolveLinearValidation(t *testing.T) {
	if _, err := SolveLinear(New(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square should error")
	}
	if _, err := SolveLinear(New(2, 2), []float64{1}); err == nil {
		t.Error("rhs length mismatch should error")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(8)
		a := Randomized(n, n, 1, rng)
		// Diagonal dominance guarantees non-singularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a.At(i, j) * want[j]
			}
		}
		got, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d]=%v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := mustFromSlice(t, 2, 2, []float64{2, 1, 1, 3})
	b := []float64{5, 10}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || a.At(1, 1) != 3 || b[0] != 5 {
		t.Error("SolveLinear mutated inputs")
	}
}
