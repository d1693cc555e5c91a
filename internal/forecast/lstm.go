package forecast

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/stats"
)

// LSTMConfig configures the LSTM forecaster. The paper stacks 128 cells
// per hidden layer and varies the number of layers and the lookback window
// ("back") in Table II.
type LSTMConfig struct {
	// Hidden is the number of cells per layer.
	Hidden int
	// Layers is the number of stacked LSTM layers.
	Layers int
	// Lookback is the input window length (the paper's "back").
	Lookback int
	// Epochs is the number of passes over the training windows.
	Epochs int
	// LearningRate is Adam's step size.
	LearningRate float64
	// ClipNorm bounds each gradient element during BPTT; 0 disables.
	ClipNorm float64
	// Seed drives weight initialisation and window shuffling.
	Seed uint64
}

func (c LSTMConfig) validate() error {
	switch {
	case c.Hidden < 1:
		return fmt.Errorf("forecast: hidden %d < 1", c.Hidden)
	case c.Layers < 1:
		return fmt.Errorf("forecast: layers %d < 1", c.Layers)
	case c.Lookback < 1:
		return fmt.Errorf("forecast: lookback %d < 1", c.Lookback)
	case c.Epochs < 1:
		return fmt.Errorf("forecast: epochs %d < 1", c.Epochs)
	case c.LearningRate <= 0:
		return fmt.Errorf("forecast: learning rate %v <= 0", c.LearningRate)
	case c.ClipNorm < 0:
		return fmt.Errorf("forecast: clip norm %v < 0", c.ClipNorm)
	}
	return nil
}

// lstmLayer holds one layer's parameters. Gate rows are ordered
// [input; forget; candidate; output], each block Hidden rows tall.
type lstmLayer struct {
	wx *matrix.Matrix // 4H x in
	wh *matrix.Matrix // 4H x H
	b  []float64      // 4H
}

// LSTM is a stacked LSTM network with a scalar input and a linear scalar
// head, trained by truncated BPTT over lookback windows with Adam.
type LSTM struct {
	cfg    LSTMConfig
	layers []*lstmLayer
	wy     []float64 // 1 x H output head
	by     float64
	scaler Scaler
	opt    *adam
	fitted bool
}

var _ Forecaster = (*LSTM)(nil)

// NewLSTM validates cfg and builds an initialised network.
func NewLSTM(cfg LSTMConfig) (*LSTM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNGStream(cfg.Seed, stats.StreamLSTMInit)
	l := &LSTM{cfg: cfg}
	in := 1
	for i := 0; i < cfg.Layers; i++ {
		scaleX := 1 / math.Sqrt(float64(in))
		scaleH := 1 / math.Sqrt(float64(cfg.Hidden))
		layer := &lstmLayer{
			wx: matrix.Randomized(4*cfg.Hidden, in, scaleX, rng),
			wh: matrix.Randomized(4*cfg.Hidden, cfg.Hidden, scaleH, rng),
			b:  make([]float64, 4*cfg.Hidden),
		}
		// Forget-gate bias starts at 1 so early training does not erase
		// the cell state — the standard LSTM initialisation trick.
		for j := cfg.Hidden; j < 2*cfg.Hidden; j++ {
			layer.b[j] = 1
		}
		l.layers = append(l.layers, layer)
		in = cfg.Hidden
	}
	l.wy = make([]float64, cfg.Hidden)
	for i := range l.wy {
		l.wy[i] = (rng.Float64()*2 - 1) / math.Sqrt(float64(cfg.Hidden))
	}
	l.opt = newAdam(cfg.LearningRate)
	return l, nil
}

// Name implements Forecaster.
func (l *LSTM) Name() string {
	return fmt.Sprintf("lstm-%dx%d-back%d", l.cfg.Layers, l.cfg.Hidden, l.cfg.Lookback)
}

// Fit implements Forecaster: scales the series, builds lookback windows
// and trains with per-window BPTT for the configured number of epochs.
func (l *LSTM) Fit(series []float64) error {
	l.scaler = FitScaler(series)
	scaled := l.scaler.TransformAll(series)
	inputs, targets, err := Windows(scaled, l.cfg.Lookback)
	if err != nil {
		return fmt.Errorf("lstm fit: %w", err)
	}
	rng := stats.NewRNGStream(l.cfg.Seed, stats.StreamLSTMShuffle)
	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < l.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			l.trainWindow(inputs[idx], targets[idx])
		}
	}
	l.fitted = true
	return nil
}

// Forecast implements Forecaster. Multi-step forecasts feed predictions
// back as inputs.
func (l *LSTM) Forecast(history []float64, steps int) ([]float64, error) {
	if !l.fitted {
		return nil, ErrNotFitted
	}
	if steps < 1 {
		return nil, fmt.Errorf("forecast: steps %d < 1", steps)
	}
	if len(history) < l.cfg.Lookback {
		return nil, fmt.Errorf("%w: history %d for lookback %d", ErrSeriesTooShort, len(history), l.cfg.Lookback)
	}
	window := make([]float64, l.cfg.Lookback)
	for i := range window {
		window[i] = l.scaler.Transform(history[len(history)-l.cfg.Lookback+i])
	}
	out := make([]float64, steps)
	for s := 0; s < steps; s++ {
		pred := l.forwardWindow(window, nil)
		out[s] = l.scaler.Invert(pred)
		copy(window, window[1:])
		window[len(window)-1] = pred
	}
	return out, nil
}

// lstmCache stores forward activations for one window, indexed
// [layer][timestep].
type lstmCache struct {
	xs             [][][]float64 // layer inputs
	is, fs, gs, os [][][]float64
	cs, hs, tanhC  [][][]float64
}

func newLSTMCache(layers, T, hidden int) *lstmCache {
	alloc := func() [][][]float64 {
		out := make([][][]float64, layers)
		for l := range out {
			out[l] = make([][]float64, T)
		}
		return out
	}
	return &lstmCache{
		xs: alloc(), is: alloc(), fs: alloc(), gs: alloc(), os: alloc(),
		cs: alloc(), hs: alloc(), tanhC: alloc(),
	}
}

// forwardWindow runs the window through the network and returns the scalar
// prediction (in scaled space). When cache is non-nil all activations are
// recorded for BPTT.
func (l *LSTM) forwardWindow(window []float64, cache *lstmCache) float64 {
	H := l.cfg.Hidden
	T := len(window)
	h := make([][]float64, len(l.layers))
	c := make([][]float64, len(l.layers))
	for i := range h {
		h[i] = make([]float64, H)
		c[i] = make([]float64, H)
	}
	z := make([]float64, 4*H)
	for t := 0; t < T; t++ {
		x := []float64{window[t]}
		for li, layer := range l.layers {
			matrix.Gemv(z, layer.wx, x)
			matrix.GemvAdd(z, layer.wh, h[li])
			matrix.AddVec(z, layer.b)

			iGate := make([]float64, H)
			fGate := make([]float64, H)
			gGate := make([]float64, H)
			oGate := make([]float64, H)
			cNew := make([]float64, H)
			hNew := make([]float64, H)
			tc := make([]float64, H)
			for j := 0; j < H; j++ {
				iGate[j] = sigmoid(z[j])
				fGate[j] = sigmoid(z[H+j])
				gGate[j] = math.Tanh(z[2*H+j])
				oGate[j] = sigmoid(z[3*H+j])
				cNew[j] = fGate[j]*c[li][j] + iGate[j]*gGate[j]
				tc[j] = math.Tanh(cNew[j])
				hNew[j] = oGate[j] * tc[j]
			}
			if cache != nil {
				cache.xs[li][t] = append([]float64(nil), x...)
				cache.is[li][t] = iGate
				cache.fs[li][t] = fGate
				cache.gs[li][t] = gGate
				cache.os[li][t] = oGate
				cache.cs[li][t] = cNew
				cache.hs[li][t] = hNew
				cache.tanhC[li][t] = tc
			}
			h[li] = hNew
			c[li] = cNew
			x = hNew
		}
	}
	// Linear head on the top layer's final hidden state.
	top := h[len(h)-1]
	pred := l.by
	for j, w := range l.wy {
		pred += w * top[j]
	}
	return pred
}

// lstmGrads holds the gradients of one BPTT pass, index-aligned with
// LSTM.layers.
type lstmGrads struct {
	dWx []*matrix.Matrix
	dWh []*matrix.Matrix
	dB  [][]float64
	dWy []float64
	dBy float64
}

// trainWindow performs one BPTT step on a single (window, target) pair.
func (l *LSTM) trainWindow(window []float64, target float64) {
	g := l.computeGradients(window, target)
	l.applyGradients(g)
}

// computeGradients runs the forward pass and full BPTT, returning the
// parameter gradients of the loss 0.5·(pred − target)² without mutating
// the network. Exercised directly by the finite-difference gradient test.
func (l *LSTM) computeGradients(window []float64, target float64) *lstmGrads {
	H := l.cfg.Hidden
	T := len(window)
	L := len(l.layers)
	cache := newLSTMCache(L, T, H)
	pred := l.forwardWindow(window, cache)
	dy := pred - target // dLoss/dpred for 0.5*(pred-target)^2

	// Gradient accumulators.
	dWx := make([]*matrix.Matrix, L)
	dWh := make([]*matrix.Matrix, L)
	dB := make([][]float64, L)
	for li, layer := range l.layers {
		dWx[li] = matrix.New(layer.wx.Rows, layer.wx.Cols)
		dWh[li] = matrix.New(layer.wh.Rows, layer.wh.Cols)
		dB[li] = make([]float64, 4*H)
	}
	dWy := make([]float64, H)
	topFinal := cache.hs[L-1][T-1]
	for j := range dWy {
		dWy[j] = dy * topFinal[j]
	}
	dBy := dy

	// dh[l], dc[l]: gradients flowing into layer l at the current
	// timestep from the future.
	dh := make([][]float64, L)
	dc := make([][]float64, L)
	for li := range dh {
		dh[li] = make([]float64, H)
		dc[li] = make([]float64, H)
	}
	for j := 0; j < H; j++ {
		dh[L-1][j] = dy * l.wy[j]
	}

	dz := make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		// Top-down within a timestep so dx from layer l feeds layer l-1.
		for li := L - 1; li >= 0; li-- {
			iG, fG, gG, oG := cache.is[li][t], cache.fs[li][t], cache.gs[li][t], cache.os[li][t]
			tc := cache.tanhC[li][t]
			var cPrev []float64
			if t > 0 {
				cPrev = cache.cs[li][t-1]
			} else {
				cPrev = make([]float64, H)
			}
			for j := 0; j < H; j++ {
				dhj := dh[li][j]
				doj := dhj * tc[j]
				dct := dc[li][j] + dhj*oG[j]*(1-tc[j]*tc[j])
				dij := dct * gG[j]
				dgj := dct * iG[j]
				dfj := dct * cPrev[j]
				dc[li][j] = dct * fG[j] // becomes dcPrev for t-1
				dz[j] = dij * iG[j] * (1 - iG[j])
				dz[H+j] = dfj * fG[j] * (1 - fG[j])
				dz[2*H+j] = dgj * (1 - gG[j]*gG[j])
				dz[3*H+j] = doj * oG[j] * (1 - oG[j])
			}
			matrix.AddOuter(dWx[li], dz, cache.xs[li][t])
			var hPrev []float64
			if t > 0 {
				hPrev = cache.hs[li][t-1]
			} else {
				hPrev = make([]float64, H)
			}
			matrix.AddOuter(dWh[li], dz, hPrev)
			matrix.AddVec(dB[li], dz)

			// dhPrev for this layer at t-1.
			for j := range dh[li] {
				dh[li][j] = 0
			}
			matrix.GemvTAdd(dh[li], l.layers[li].wh, dz)

			// dx flows into the layer below as extra dh at the same t.
			if li > 0 {
				matrix.GemvTAdd(dh[li-1], l.layers[li].wx, dz)
			}
		}
	}

	return &lstmGrads{dWx: dWx, dWh: dWh, dB: dB, dWy: dWy, dBy: dBy}
}

// applyGradients clips g and takes one Adam step.
func (l *LSTM) applyGradients(g *lstmGrads) {
	if l.cfg.ClipNorm > 0 {
		for li := range l.layers {
			g.dWx[li].ClipInPlace(l.cfg.ClipNorm)
			g.dWh[li].ClipInPlace(l.cfg.ClipNorm)
			clipVec(g.dB[li], l.cfg.ClipNorm)
		}
		clipVec(g.dWy, l.cfg.ClipNorm)
		if g.dBy > l.cfg.ClipNorm {
			g.dBy = l.cfg.ClipNorm
		} else if g.dBy < -l.cfg.ClipNorm {
			g.dBy = -l.cfg.ClipNorm
		}
	}

	l.opt.step()
	for li, layer := range l.layers {
		l.opt.update(fmt.Sprintf("wx%d", li), layer.wx.Data, g.dWx[li].Data)
		l.opt.update(fmt.Sprintf("wh%d", li), layer.wh.Data, g.dWh[li].Data)
		l.opt.update(fmt.Sprintf("b%d", li), layer.b, g.dB[li])
	}
	l.opt.update("wy", l.wy, g.dWy)
	byArr := []float64{l.by}
	l.opt.update("by", byArr, []float64{g.dBy})
	l.by = byArr[0]
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clipVec(v []float64, limit float64) {
	for i, x := range v {
		if x > limit {
			v[i] = limit
		} else if x < -limit {
			v[i] = -limit
		}
	}
}

// adam is a minimal Adam optimiser keyed by parameter-tensor name.
type adam struct {
	lr      float64
	beta1   float64
	beta2   float64
	eps     float64
	t       int
	moments map[string]*adamMoment
}

type adamMoment struct {
	m, v []float64
}

func newAdam(lr float64) *adam {
	return &adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, moments: map[string]*adamMoment{}}
}

func (a *adam) step() { a.t++ }

func (a *adam) update(name string, param, grad []float64) {
	mom, ok := a.moments[name]
	if !ok {
		mom = &adamMoment{m: make([]float64, len(param)), v: make([]float64, len(param))}
		a.moments[name] = mom
	}
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i := range param {
		g := grad[i]
		mom.m[i] = a.beta1*mom.m[i] + (1-a.beta1)*g
		mom.v[i] = a.beta2*mom.v[i] + (1-a.beta2)*g*g
		mHat := mom.m[i] / bc1
		vHat := mom.v[i] / bc2
		param[i] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
	}
}
