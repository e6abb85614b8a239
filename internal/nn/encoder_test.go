package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/gom"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/orbit"
	"github.com/htc-align/htc/internal/sparse"
)

func smallLaplacian(seed int64, n int) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.ErdosRenyi(n, 0.4, rng)
	return gom.LowOrder(g).Laplacians[0]
}

func randomFeatures(n, d int, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := dense.New(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func TestActivations(t *testing.T) {
	z := []float64{-1, 0, 2}
	relu := ReLU{}
	relu.Forward(z)
	if z[0] != 0 || z[1] != 0 || z[2] != 2 {
		t.Fatalf("relu forward = %v", z)
	}
	grad := []float64{1, 1, 1}
	relu.Backward(grad, z)
	if grad[0] != 0 || grad[2] != 1 {
		t.Fatalf("relu backward = %v", grad)
	}

	z = []float64{0.5}
	th := Tanh{}
	th.Forward(z)
	if math.Abs(z[0]-math.Tanh(0.5)) > 1e-15 {
		t.Fatalf("tanh forward = %v", z)
	}
	grad = []float64{1}
	th.Backward(grad, z)
	if math.Abs(grad[0]-(1-z[0]*z[0])) > 1e-15 {
		t.Fatalf("tanh backward = %v", grad)
	}

	lin := Linear{}
	z = []float64{3}
	lin.Forward(z)
	grad = []float64{2}
	lin.Backward(grad, z)
	if z[0] != 3 || grad[0] != 2 {
		t.Fatal("linear must be identity")
	}
}

func TestNewEncoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEncoder([]int{5, 8, 3}, []Activation{Tanh{}, Tanh{}}, rng)
	if e.Layers() != 2 {
		t.Fatalf("Layers = %d", e.Layers())
	}
	if e.W[0].Rows != 5 || e.W[0].Cols != 8 || e.W[1].Rows != 8 || e.W[1].Cols != 3 {
		t.Fatal("weight shapes wrong")
	}
}

func TestEncoderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		dims []int
		acts []Activation
	}{
		{[]int{3}, nil},
		{[]int{3, 4}, []Activation{Tanh{}, Tanh{}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v acts %d: expected panic", tc.dims, len(tc.acts))
				}
			}()
			NewEncoder(tc.dims, tc.acts, rng)
		}()
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	lap := smallLaplacian(2, 10)
	x := randomFeatures(10, 4, 3)
	e := NewEncoder([]int{4, 6, 2}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(4)))
	h1 := e.Embed(lap, x)
	h2 := e.Embed(lap, x)
	if h1.Rows != 10 || h1.Cols != 2 {
		t.Fatalf("embedding shape %dx%d", h1.Rows, h1.Cols)
	}
	if !h1.Equal(h2, 0) {
		t.Fatal("forward pass is not deterministic")
	}
}

func TestReconLossAgainstDense(t *testing.T) {
	lap := smallLaplacian(5, 8)
	h := randomFeatures(8, 3, 6)
	loss, _ := ReconLoss(lap, h)

	// Reference: materialise E = L̃ − HHᵀ densely.
	e := lap.ToDense()
	e.Sub(dense.MulBT(h, h))
	want := e.SumSquares()
	if math.Abs(loss-want) > 1e-9*(1+want) {
		t.Fatalf("ReconLoss = %v, want %v", loss, want)
	}
}

func TestReconLossGradientNumerically(t *testing.T) {
	lap := smallLaplacian(7, 6)
	h := randomFeatures(6, 2, 8)
	_, grad := ReconLoss(lap, h)

	const eps = 1e-6
	for _, idx := range []int{0, 3, 7, 11} {
		orig := h.Data[idx]
		h.Data[idx] = orig + eps
		lp, _ := ReconLoss(lap, h)
		h.Data[idx] = orig - eps
		lm, _ := ReconLoss(lap, h)
		h.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[idx]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, numeric %v", idx, grad.Data[idx], num)
		}
	}
}

// TestBackwardGradientNumerically is the keystone test of the manual
// backprop: every weight gradient must match central finite differences of
// the full forward+loss computation.
func TestBackwardGradientNumerically(t *testing.T) {
	lap := smallLaplacian(9, 7)
	x := randomFeatures(7, 3, 10)
	e := NewEncoder([]int{3, 5, 2}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(11)))

	lossAt := func() float64 {
		l, _ := ReconLoss(lap, e.Embed(lap, x))
		return l
	}
	cache := e.Forward(lap, x)
	_, dH := ReconLoss(lap, cache.Output())
	grads := e.ZeroGrads()
	e.Backward(cache, dH, grads)

	const eps = 1e-6
	for l := 0; l < e.Layers(); l++ {
		w := e.W[l]
		for _, idx := range []int{0, 1, len(w.Data) / 2, len(w.Data) - 1} {
			orig := w.Data[idx]
			w.Data[idx] = orig + eps
			lp := lossAt()
			w.Data[idx] = orig - eps
			lm := lossAt()
			w.Data[idx] = orig
			num := (lp - lm) / (2 * eps)
			got := grads[l].Data[idx]
			if math.Abs(num-got) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("layer %d grad[%d] = %v, numeric %v", l, idx, got, num)
			}
		}
	}
}

func TestBackwardGradientNumericallyReLU(t *testing.T) {
	lap := smallLaplacian(13, 6)
	x := randomFeatures(6, 3, 14)
	e := NewEncoder([]int{3, 4, 2}, []Activation{ReLU{}, Linear{}}, rand.New(rand.NewSource(15)))

	cache := e.Forward(lap, x)
	_, dH := ReconLoss(lap, cache.Output())
	grads := e.ZeroGrads()
	e.Backward(cache, dH, grads)

	const eps = 1e-6
	w := e.W[0]
	for _, idx := range []int{0, 5, len(w.Data) - 1} {
		orig := w.Data[idx]
		w.Data[idx] = orig + eps
		lp, _ := ReconLoss(lap, e.Embed(lap, x))
		w.Data[idx] = orig - eps
		lm, _ := ReconLoss(lap, e.Embed(lap, x))
		w.Data[idx] = orig
		num := (lp - lm) / (2 * eps)
		got := grads[0].Data[idx]
		if math.Abs(num-got) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("relu grad[%d] = %v, numeric %v", idx, got, num)
		}
	}
}

// TestSharedEncoderEquivariance checks the mechanism behind Proposition 1:
// encoding an isomorphic copy of a graph (with permuted features) through
// the same shared encoder yields exactly permuted embeddings, so perfectly
// consistent anchor nodes embed identically.
func TestSharedEncoderEquivariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.ErdosRenyi(12, 0.35, rng)
	x := randomFeatures(12, 4, 18)
	perm := graph.Permutation(12, rng)
	h := graph.Relabel(g.WithAttrs(x), perm)

	gs := gom.Build(g, orbit.Count(g), 5, false)
	ht := gom.Build(h, orbit.Count(h), 5, false)
	e := NewEncoder([]int{4, 6, 3}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(19)))

	for k := 0; k < 5; k++ {
		hs := e.Embed(gs.Laplacians[k], x)
		htEmb := e.Embed(ht.Laplacians[k], h.Attrs())
		for i := 0; i < 12; i++ {
			for j := 0; j < 3; j++ {
				if math.Abs(hs.At(i, j)-htEmb.At(perm[i], j)) > 1e-9 {
					t.Fatalf("orbit %d: node %d embedding differs from its anchor", k, i)
				}
			}
		}
	}
}

func TestAdamMinimisesQuadratic(t *testing.T) {
	// Minimise f(w) = Σ (w − 3)² with Adam; w must approach 3.
	w := dense.New(2, 2)
	opt := NewAdam([]*dense.Matrix{w}, 0.1)
	for i := 0; i < 500; i++ {
		g := w.Clone()
		g.Apply(func(v float64) float64 { return 2 * (v - 3) })
		opt.Step([]*dense.Matrix{g})
	}
	for _, v := range w.Data {
		if math.Abs(v-3) > 1e-3 {
			t.Fatalf("Adam did not converge: %v", w)
		}
	}
}

func TestAdamStepCountMismatchPanics(t *testing.T) {
	opt := NewAdam([]*dense.Matrix{dense.New(1, 1)}, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	opt.Step(nil)
}

func TestTrainLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	gs := graph.ErdosRenyi(25, 0.25, rng)
	gt := graph.ErdosRenyi(25, 0.25, rng)
	xs := randomFeatures(25, 5, 21)
	xt := randomFeatures(25, 5, 22)
	src := &GraphData{Laps: gom.Build(gs, orbit.Count(gs), 4, false).Laplacians, X: xs}
	tgt := &GraphData{Laps: gom.Build(gt, orbit.Count(gt), 4, false).Laplacians, X: xt}

	e := NewEncoder([]int{5, 8, 4}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(23)))
	hist := Train(e, src, tgt, TrainConfig{Epochs: 60, LR: 0.02})
	if len(hist) != 60 {
		t.Fatalf("history length %d", len(hist))
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("loss did not decrease: first %v last %v", hist[0], hist[len(hist)-1])
	}
}

func TestTrainPatienceStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := graph.ErdosRenyi(15, 0.4, rng)
	x := randomFeatures(15, 3, 30)
	gd := &GraphData{Laps: gom.LowOrder(g).Laplacians, X: x}
	e := NewEncoder([]int{3, 4, 2}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(31)))
	hist := Train(e, gd, gd, TrainConfig{Epochs: 500, LR: 0.05, Patience: 5})
	if len(hist) >= 500 {
		t.Fatalf("patience did not trigger in %d epochs", len(hist))
	}
	if len(hist) < 6 {
		t.Fatalf("stopped suspiciously early: %d epochs", len(hist))
	}
}

func TestTrainNoPatienceRunsFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.ErdosRenyi(12, 0.4, rng)
	x := randomFeatures(12, 3, 33)
	gd := &GraphData{Laps: gom.LowOrder(g).Laplacians, X: x}
	e := NewEncoder([]int{3, 4, 2}, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(34)))
	hist := Train(e, gd, gd, TrainConfig{Epochs: 30, LR: 0.05})
	if len(hist) != 30 {
		t.Fatalf("ran %d epochs, want the full 30", len(hist))
	}
}

func TestTrainZeroEpochs(t *testing.T) {
	e := NewEncoder([]int{2, 2}, []Activation{Tanh{}}, rand.New(rand.NewSource(24)))
	if hist := Train(e, &GraphData{}, &GraphData{}, TrainConfig{Epochs: 0, LR: 0.01}); hist != nil {
		t.Fatal("zero epochs must return nil history")
	}
}

func TestTrainOrbitMismatchPanics(t *testing.T) {
	e := NewEncoder([]int{2, 2}, []Activation{Tanh{}}, rand.New(rand.NewSource(25)))
	src := &GraphData{Laps: make([]*sparse.CSR, 2)}
	tgt := &GraphData{Laps: make([]*sparse.CSR, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Train(e, src, tgt, TrainConfig{Epochs: 1, LR: 0.01})
}
