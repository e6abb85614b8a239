package nn

import (
	"fmt"
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/sparse"
)

// Encoder is an L-layer graph convolutional encoder with weights shared
// across graphs and orbits (the property Proposition 1 of the paper relies
// on). Layer l computes Hˡ = fˡ(L̃·Hˡ⁻¹·Wˡ) per Eq. (4)–(5); the Laplacian
// L̃ is supplied per forward call so the same weights serve every orbit of
// both the source and target graph.
type Encoder struct {
	// Dims holds the layer widths: Dims[0] is the input feature
	// dimension, Dims[len(Dims)-1] the embedding dimension.
	Dims []int
	// Acts holds one activation per layer.
	Acts []Activation
	// W holds the trainable weights, W[l] of shape Dims[l]×Dims[l+1].
	W []*dense.Matrix
}

// NewEncoder creates an encoder with Xavier-initialised weights drawn from
// rng. dims must contain at least two entries and acts exactly
// len(dims)−1.
func NewEncoder(dims []int, acts []Activation, rng *rand.Rand) *Encoder {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: encoder needs ≥2 dims, got %v", dims))
	}
	if len(acts) != len(dims)-1 {
		panic(fmt.Sprintf("nn: %d activations for %d layers", len(acts), len(dims)-1))
	}
	e := &Encoder{Dims: dims, Acts: acts, W: make([]*dense.Matrix, len(dims)-1)}
	for l := range e.W {
		e.W[l] = dense.Xavier(dims[l], dims[l+1], rng)
	}
	return e
}

// Layers returns the number of hidden layers L.
func (e *Encoder) Layers() int { return len(e.W) }

// Cache stores the intermediate activations of one forward pass, needed to
// run the corresponding backward pass.
type Cache struct {
	// Lap is the aggregation matrix used by the pass.
	Lap *sparse.CSR
	// X is the input feature matrix.
	X *dense.Matrix
	// P[l] = Lap·Hˡ⁻¹ (pre-weight aggregate), A[l] = fˡ(P[l]·Wˡ).
	P, A []*dense.Matrix
}

// Output returns the final-layer embeddings of the pass.
func (c *Cache) Output() *dense.Matrix { return c.A[len(c.A)-1] }

// Forward runs the encoder over one graph: lap is the (possibly
// reinforced) normalised orbit Laplacian, x the node features. It returns
// the cache holding every layer's activations.
func (e *Encoder) Forward(lap *sparse.CSR, x *dense.Matrix) *Cache {
	c := &Cache{}
	e.ForwardReuse(c, lap, x, 0)
	return c
}

// ForwardReuse is Forward writing into a caller-owned cache: when c's
// buffers already have the right shapes they are overwritten in place, so
// a training or fine-tuning loop allocates its activations once instead of
// every pass. workers bounds the kernel fan-out (≤ 0 = GOMAXPROCS).
func (e *Encoder) ForwardReuse(c *Cache, lap *sparse.CSR, x *dense.Matrix, workers int) {
	if x.Cols != e.Dims[0] {
		panic(fmt.Sprintf("nn: input has %d features, encoder expects %d", x.Cols, e.Dims[0]))
	}
	if len(c.P) != e.Layers() {
		c.P = make([]*dense.Matrix, e.Layers())
		c.A = make([]*dense.Matrix, e.Layers())
	}
	c.Lap, c.X = lap, x
	h := x
	for l := 0; l < e.Layers(); l++ {
		p := dense.Ensure(c.P[l], x.Rows, h.Cols)
		lap.MulDenseInto(p, h, workers)
		z := dense.Ensure(c.A[l], x.Rows, e.Dims[l+1])
		dense.MulInto(z, p, e.W[l], workers)
		e.Acts[l].Forward(z.Data)
		c.P[l], c.A[l] = p, z
		h = z
	}
}

// Embed is a convenience wrapper returning only the final embeddings.
func (e *Encoder) Embed(lap *sparse.CSR, x *dense.Matrix) *dense.Matrix {
	return e.Forward(lap, x).Output()
}

// Backward accumulates ∂loss/∂W into grads given ∂loss/∂output. The cache
// must come from a Forward call on this encoder; grads must hold one
// matrix per layer, shaped like the weights. dOut is consumed
// (overwritten) during the pass.
//
// Derivation per layer (symmetric L̃): with Zˡ = L̃·Aˡ⁻¹·Wˡ and
// Aˡ = fˡ(Zˡ):
//
//	dZˡ = dAˡ ⊙ fˡ′,  dWˡ = (L̃·Aˡ⁻¹)ᵀ·dZˡ = Pˡᵀ·dZˡ,
//	dAˡ⁻¹ = L̃ᵀ·(dZˡ·Wˡᵀ) = L̃·(dZˡ·Wˡᵀ).
func (e *Encoder) Backward(c *Cache, dOut *dense.Matrix, grads []*dense.Matrix) {
	e.backwardReuse(c, dOut, grads, &workspace{}, 0)
}

// backwardReuse is Backward with a caller-owned workspace for the
// intermediate dP/dA matrices, so repeated passes stop allocating them.
func (e *Encoder) backwardReuse(c *Cache, dOut *dense.Matrix, grads []*dense.Matrix, ws *workspace, workers int) {
	if len(grads) != e.Layers() {
		panic(fmt.Sprintf("nn: %d gradient buffers for %d layers", len(grads), e.Layers()))
	}
	if len(ws.dP) != e.Layers() {
		ws.dP = make([]*dense.Matrix, e.Layers())
		ws.dA = make([]*dense.Matrix, e.Layers())
	}
	n := c.X.Rows
	dA := dOut
	for l := e.Layers() - 1; l >= 0; l-- {
		e.Acts[l].Backward(dA.Data, c.A[l].Data) // dA becomes dZ in place
		dense.MulATAccum(grads[l], c.P[l], dA, workers)
		if l > 0 {
			dP := dense.Ensure(ws.dP[l], n, e.Dims[l])
			dense.MulBTInto(dP, dA, e.W[l], workers)
			ws.dP[l] = dP
			next := dense.Ensure(ws.dA[l], n, e.Dims[l])
			c.Lap.MulDenseInto(next, dP, workers) // L̃ is symmetric: L̃ᵀ·dP = L̃·dP
			ws.dA[l] = next
			dA = next
		}
	}
}

// workspace bundles the per-goroutine scratch of one training task stream:
// the forward cache, the backward intermediates and the reconstruction-
// loss buffers. One worker reuses its workspace across every orbit and
// epoch it processes, which removes the per-pass allocation churn that
// used to dominate the training loop's GC time.
type workspace struct {
	cache          Cache
	dP, dA         []*dense.Matrix
	lh, grad, gram *dense.Matrix
}

// ZeroGrads returns zeroed gradient buffers shaped like the encoder's
// weights.
func (e *Encoder) ZeroGrads() []*dense.Matrix {
	grads := make([]*dense.Matrix, e.Layers())
	for l, w := range e.W {
		grads[l] = dense.New(w.Rows, w.Cols)
	}
	return grads
}

// ReconLoss evaluates the graph-autoencoder reconstruction objective for
// one orbit and one graph: loss = ‖L̃ − H·Hᵀ‖²_F (squared Frobenius form
// of Eq. (7); same minimiser, smooth gradient), returning the loss value
// and ∂loss/∂H.
//
// Neither the loss nor the gradient materialises the n×n reconstruction:
//
//	loss = ‖L̃‖²_F − 2·Σ(H ⊙ (L̃·H)) + ‖HᵀH‖²_F
//	grad = −4·(L̃·H − H·(HᵀH))
func ReconLoss(lap *sparse.CSR, h *dense.Matrix) (float64, *dense.Matrix) {
	return reconLossReuse(lap, h, &workspace{}, 0)
}

// reconLossReuse is ReconLoss writing its intermediates (and the returned
// gradient) into the workspace, so an epoch loop reuses three buffers
// instead of allocating them per orbit per epoch. The returned gradient
// aliases ws.grad and is valid until the next call on the same workspace.
func reconLossReuse(lap *sparse.CSR, h *dense.Matrix, ws *workspace, workers int) (float64, *dense.Matrix) {
	ws.lh = dense.Ensure(ws.lh, h.Rows, h.Cols)
	lap.MulDenseInto(ws.lh, h, workers) // n×d
	ws.gram = dense.Ensure(ws.gram, h.Cols, h.Cols)
	dense.MulATInto(ws.gram, h, h, workers) // d×d
	loss := lap.SumSquares() - 2*h.Dot(ws.lh) + ws.gram.SumSquares()
	ws.grad = dense.Ensure(ws.grad, h.Rows, h.Cols)
	dense.MulInto(ws.grad, h, ws.gram, workers) // H·(HᵀH)
	ws.grad.Sub(ws.lh)
	ws.grad.Scale(4) // −4(L̃H − H·Gram) = 4(H·Gram − L̃H)
	return loss, ws.grad
}
