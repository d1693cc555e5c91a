// Package matrix implements the small dense linear algebra kernel used by
// the forecasting engine (LSTM and ARIMA). It favours clarity and
// allocation-free in-place variants over peak throughput; the models this
// repository trains are tiny by deep-learning standards.
package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randomized fills a new matrix with uniform values in [-scale, scale],
// the Xavier-style initialisation used for LSTM weights.
func Randomized(rows, cols int, scale float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool {
	return m.Rows == n.Rows && m.Cols == n.Cols
}

// shapeCheck panics on mismatched shapes; the forecaster constructs all
// shapes statically so a mismatch is a programming error, not runtime
// input.
func shapeCheck(cond bool, format string, args ...any) {
	if !cond {
		panic("matrix: " + fmt.Sprintf(format, args...))
	}
}

// MulTo computes dst = m × n. dst must be m.Rows×n.Cols and distinct from
// both operands.
func MulTo(dst, m, n *Matrix) {
	shapeCheck(m.Cols == n.Rows, "mul %dx%d by %dx%d", m.Rows, m.Cols, n.Rows, n.Cols)
	shapeCheck(dst.Rows == m.Rows && dst.Cols == n.Cols, "mul dst %dx%d want %dx%d",
		dst.Rows, dst.Cols, m.Rows, n.Cols)
	shapeCheck(dst != m && dst != n, "mul dst aliases operand")
	for i := 0; i < m.Rows; i++ {
		dstRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k := range dstRow {
			dstRow[k] = 0
		}
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			nRow := n.Data[k*n.Cols : (k+1)*n.Cols]
			for j, b := range nRow {
				dstRow[j] += a * b
			}
		}
	}
}

// AddInPlace computes m += n.
func (m *Matrix) AddInPlace(n *Matrix) {
	shapeCheck(m.SameShape(n), "add-in-place %dx%d += %dx%d", m.Rows, m.Cols, n.Rows, n.Cols)
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
}

// AddScaled computes m += s·n.
func (m *Matrix) AddScaled(n *Matrix, s float64) {
	shapeCheck(m.SameShape(n), "add-scaled %dx%d += %dx%d", m.Rows, m.Cols, n.Rows, n.Cols)
	for i := range m.Data {
		m.Data[i] += s * n.Data[i]
	}
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply sets dst = f(a) elementwise; dst may alias a.
func Apply(dst, a *Matrix, f func(float64) float64) {
	shapeCheck(dst.SameShape(a), "apply shape mismatch")
	for i := range dst.Data {
		dst.Data[i] = f(a.Data[i])
	}
}

// Transpose returns mᵀ as a fresh matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MulATB computes dst = aᵀ × b without materialising the transpose.
func MulATB(dst, a, b *Matrix) {
	shapeCheck(a.Rows == b.Rows, "atb %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	shapeCheck(dst.Rows == a.Cols && dst.Cols == b.Cols, "atb dst shape")
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		aRow := a.Data[k*a.Cols : (k+1)*a.Cols]
		bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			dstRow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range bRow {
				dstRow[j] += av * bv
			}
		}
	}
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	var sum float64
	for _, v := range m.Data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// ClipInPlace clamps every element into [-limit, limit]; used for gradient
// clipping during BPTT.
func (m *Matrix) ClipInPlace(limit float64) {
	for i, v := range m.Data {
		if v > limit {
			m.Data[i] = limit
		} else if v < -limit {
			m.Data[i] = -limit
		}
	}
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// SolveLinear solves A·x = b by Gaussian elimination with partial
// pivoting, destroying neither input. It returns an error when A is not
// square, dimensions mismatch, or A is (numerically) singular. The ARIMA
// fitter uses this to solve the normal equations of its AR regression.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("matrix: solve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("matrix: solve rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	aug := make([][]float64, n)
	for i := 0; i < n; i++ {
		aug[i] = make([]float64, n+1)
		copy(aug[i], a.Data[i*n:(i+1)*n])
		aug[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("matrix: singular system at column %d", col)
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := 1 / aug[col][col]
		for r := col + 1; r < n; r++ {
			factor := aug[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				aug[r][c] -= factor * aug[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := aug[i][n]
		for j := i + 1; j < n; j++ {
			sum -= aug[i][j] * x[j]
		}
		x[i] = sum / aug[i][i]
	}
	return x, nil
}
