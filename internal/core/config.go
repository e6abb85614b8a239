// Package core orchestrates the full HTC pipeline (paper Fig. 3): graphlet
// orbit matrix construction → multi-orbit-aware training of a shared GCN
// autoencoder → trusted-pair based fine-tuning per orbit → posterior
// importance integration into the final alignment matrix. The ablation
// variants of Table III (HTC-L/H/LT/DT) are configurations of the same
// pipeline.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/orbit"
)

// Variant selects which ablation of the pipeline runs.
type Variant int

// The pipeline variants of the paper's Table III.
const (
	// Full is HTC(-HT): all orbits, trusted-pair fine-tuning.
	Full Variant = iota
	// LowOrder is HTC-L: orbit 0 only, no fine-tuning.
	LowOrder
	// HighOrder is HTC-H: all orbits, no fine-tuning.
	HighOrder
	// LowOrderFT is HTC-LT: orbit 0 only, with fine-tuning.
	LowOrderFT
	// DiffusionFT is HTC-DT: diffusion matrices replace GOMs, with
	// fine-tuning.
	DiffusionFT
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Full:
		return "HTC"
	case LowOrder:
		return "HTC-L"
	case HighOrder:
		return "HTC-H"
	case LowOrderFT:
		return "HTC-LT"
	case DiffusionFT:
		return "HTC-DT"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

func (v Variant) usesOrbits() bool   { return v == Full || v == HighOrder }
func (v Variant) usesFineTune() bool { return v == Full || v == LowOrderFT || v == DiffusionFT }

// Variants lists every pipeline variant in definition order.
func Variants() []Variant { return []Variant{Full, LowOrder, HighOrder, LowOrderFT, DiffusionFT} }

// ParseVariant resolves a paper name ("HTC", "HTC-L", "HTC-H", "HTC-LT",
// "HTC-DT", case-insensitive, the "HTC-" prefix optional for the
// ablations) into a Variant.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "", "HTC", "FULL":
		return Full, nil
	case "HTC-L", "L":
		return LowOrder, nil
	case "HTC-H", "H":
		return HighOrder, nil
	case "HTC-LT", "LT":
		return LowOrderFT, nil
	case "HTC-DT", "DT":
		return DiffusionFT, nil
	}
	return Full, fmt.Errorf("core: unknown variant %q (want HTC, HTC-L, HTC-H, HTC-LT or HTC-DT)", s)
}

// MarshalText encodes the variant as its paper name, so JSON configs say
// "HTC-DT" rather than an opaque enum number.
func (v Variant) MarshalText() ([]byte, error) {
	switch v {
	case Full, LowOrder, HighOrder, LowOrderFT, DiffusionFT:
		return []byte(v.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown variant %d", int(v))
}

// UnmarshalText decodes a paper name via ParseVariant.
func (v *Variant) UnmarshalText(text []byte) error {
	parsed, err := ParseVariant(string(text))
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// SimBackend selects how the pipeline represents similarity/alignment
// scores: the full dense ns×nt matrix, the blocked top-k candidate
// structure (O(n·k) memory), the LSH-accelerated approximate candidate
// generator, or an automatic choice by pair size.
type SimBackend int

// The similarity backends.
const (
	// SimAuto picks the backend from the pair size: dense while the
	// score matrices stay comfortably in memory, top-k beyond (see
	// autoDenseCells), and the approximate ANN generator once even the
	// exact blocked scan turns quadratic-infeasible (autoAnnCells).
	SimAuto SimBackend = iota
	// SimDense always materialises full ns×nt score matrices — exact,
	// and the right choice for small pairs.
	SimDense
	// SimTopK restricts every similarity stage to each node's top
	// CandidateK counterparts. Memory drops from O(n²) to O(n·k); with
	// k ≥ max(ns, nt) it is bit-identical to dense.
	SimTopK
	// SimANN keeps the top-k representation but generates the candidate
	// lists through a signed-random-projection LSH index instead of the
	// exact blocked scan: compute drops from O(ns·nt) score cells to
	// hashing plus an exact re-rank of each node's probed pool. Recall
	// against the exact lists is tunable via AnnBits/AnnProbes, and with
	// AnnProbes ≥ 2^AnnBits the run is bit-identical to SimTopK.
	SimANN
)

// String names the backend as it appears in configs and results.
func (s SimBackend) String() string {
	switch s {
	case SimAuto:
		return "auto"
	case SimDense:
		return "dense"
	case SimTopK:
		return "topk"
	case SimANN:
		return "ann"
	}
	return fmt.Sprintf("SimBackend(%d)", int(s))
}

// ParseSimBackend resolves a backend name ("auto", "dense", "topk",
// "ann", case-insensitive, empty = auto).
func ParseSimBackend(s string) (SimBackend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return SimAuto, nil
	case "dense", "full":
		return SimDense, nil
	case "topk", "top-k", "sparse":
		return SimTopK, nil
	case "ann", "lsh":
		return SimANN, nil
	}
	return SimAuto, fmt.Errorf("core: unknown similarity backend %q (want auto, dense, topk or ann)", s)
}

// SimBackends lists every similarity backend in definition order — the
// roster the server's capabilities endpoint advertises.
func SimBackends() []SimBackend { return []SimBackend{SimAuto, SimDense, SimTopK, SimANN} }

// MarshalText encodes the backend by name, so JSON configs say "topk"
// rather than an opaque enum number.
func (s SimBackend) MarshalText() ([]byte, error) {
	switch s {
	case SimAuto, SimDense, SimTopK, SimANN:
		return []byte(s.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown similarity backend %d", int(s))
}

// UnmarshalText decodes a backend name via ParseSimBackend.
func (s *SimBackend) UnmarshalText(text []byte) error {
	parsed, err := ParseSimBackend(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Precision selects the numeric width of the post-training compute
// tier. Stage-3 training is always float64 — the Adam updates and their
// bit-identity guarantees are untouched. The float32 tier rounds the
// candidate backends' centered, normalised embedding copies and every
// candidate score to float32, in float64 storage: float64 accumulators
// over float32 values, with no memory saving.
type Precision int

// The precision tiers.
const (
	// PrecisionAuto picks the tier from the pair size: float64 on small
	// pairs, float32 past the same cell threshold that switches SimAuto
	// to the ANN backend (autoAnnCells). The dense backend always
	// resolves to float64 — it has no reduced-precision tier.
	PrecisionAuto Precision = iota
	// PrecisionF64 forces full float64 throughout — bit-identical to the
	// pipeline before the precision tier existed.
	PrecisionF64
	// PrecisionF32 forces the float32 tier for the top-k and ANN
	// candidate backends. Scores keep float64 accumulators, so rankings
	// are stable; Hits@1 moves by well under the run-to-run seed noise
	// (property-tested at ±0.01 against f64).
	PrecisionF32
)

// String names the tier as it appears in configs and results.
func (p Precision) String() string {
	switch p {
	case PrecisionAuto:
		return "auto"
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision resolves a tier name ("auto", "f64", "f32",
// case-insensitive, empty = auto).
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return PrecisionAuto, nil
	case "f64", "float64", "double":
		return PrecisionF64, nil
	case "f32", "float32", "single":
		return PrecisionF32, nil
	}
	return PrecisionAuto, fmt.Errorf("core: unknown precision %q (want auto, f64 or f32)", s)
}

// Precisions lists every precision tier in definition order — the roster
// the server's capabilities endpoint advertises.
func Precisions() []Precision { return []Precision{PrecisionAuto, PrecisionF64, PrecisionF32} }

// MarshalText encodes the tier by name, so JSON configs say "f32" rather
// than an opaque enum number.
func (p Precision) MarshalText() ([]byte, error) {
	switch p {
	case PrecisionAuto, PrecisionF64, PrecisionF32:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown precision %d", int(p))
}

// UnmarshalText decodes a tier name via ParsePrecision.
func (p *Precision) UnmarshalText(text []byte) error {
	parsed, err := ParsePrecision(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Config holds the pipeline hyperparameters. The zero value is completed
// by withDefaults to the paper's settings (§V-A), except that the default
// embedding width is scaled to laptop-sized graphs.
//
// Config (de)serialises with encoding/json — the variant travels as its
// paper name ("HTC-DT"), omitted fields select the defaults — so an HTTP
// request body or a config file can carry a full pipeline configuration.
type Config struct {
	// Variant selects the ablation (default Full).
	Variant Variant `json:"variant,omitempty"`
	// K is the number of orbits (default and maximum 13; ignored by
	// LowOrder* variants, reused as diffusion order count by
	// DiffusionFT).
	K int `json:"k,omitempty"`
	// Hidden and Embed are the GCN widths: dims = [d, Hidden, Embed].
	// Defaults 128 and 64.
	Hidden int `json:"hidden,omitempty"`
	Embed  int `json:"embed,omitempty"`
	// Layers is the number of GCN layers, 2 or 3 (default 2, the paper's
	// best setting).
	Layers int `json:"layers,omitempty"`
	// Epochs is the number of training epochs (default 60).
	Epochs int `json:"epochs,omitempty"`
	// Patience, when positive, stops training early once the loss stops
	// improving for that many epochs (0 = train the full budget, as in
	// the paper).
	Patience int `json:"patience,omitempty"`
	// LR is the Adam learning rate (default 0.01, as in the paper).
	LR float64 `json:"lr,omitempty"`
	// M is the LISI neighbourhood size (default 20).
	M int `json:"m,omitempty"`
	// Beta is the trusted-pair reinforcement rate (default 1.1).
	Beta float64 `json:"beta,omitempty"`
	// Binary switches the GOMs to their weaker binary form.
	Binary bool `json:"binary,omitempty"`
	// MaxFineTuneIters caps Algorithm 2's loop (default 30).
	MaxFineTuneIters int `json:"max_fine_tune_iters,omitempty"`
	// DiffusionAlpha is the PPR teleport probability of HTC-DT
	// (default 0.15, the paper's best).
	DiffusionAlpha float64 `json:"diffusion_alpha,omitempty"`
	// Similarity selects the similarity representation: SimAuto (the
	// default) uses dense matrices up to autoDenseCells score cells and
	// the top-k candidate backend beyond; SimDense and SimTopK force a
	// backend. The top-k backend bounds similarity memory at O(n·k)
	// instead of O(n²), at the cost of restricting matching, trusted
	// pairs and evaluation to each node's candidate list (exact when
	// CandidateK ≥ max(ns, nt)).
	Similarity SimBackend `json:"similarity,omitempty"`
	// CandidateK is the per-node candidate count of the top-k and ANN
	// backends (0 = automatic: max(32, 2·M), clamped to the pair size).
	// It must not be negative, and setting it alongside a resolved dense
	// backend is rejected rather than silently ignored (ErrIgnoredSimKnob).
	CandidateK int `json:"candidate_k,omitempty"`
	// AnnBits is the LSH code width of the ANN backend: 2^AnnBits hash
	// buckets (0 = automatic, sized from the pair: see ann.AutoBits; max
	// ann.MaxBits). Only meaningful when the run resolves to SimANN —
	// setting it under another backend is rejected (ErrIgnoredSimKnob).
	AnnBits int `json:"ann_bits,omitempty"`
	// AnnProbes is the number of hash buckets the ANN backend scans per
	// query, in the margin-ordered multi-probe sequence (0 = automatic:
	// see ann.AutoProbes). AnnProbes ≥ 2^AnnBits is the exactness escape
	// hatch: every bucket is scanned and the run is bit-identical to
	// SimTopK. Like AnnBits, it is rejected under other backends.
	AnnProbes int `json:"ann_probes,omitempty"`
	// AnnPoolCap, when positive, bounds the candidate pool the ANN
	// backend re-ranks per query: the probe sequence stops once that many
	// rows are gathered (never below CandidateK). It hard-caps per-query
	// latency on skewed inputs at a measurable recall cost; 0 (the
	// default) leaves the pool bounded only by the probe budget. Like the
	// other ann_* knobs it is rejected under other backends.
	AnnPoolCap int `json:"ann_pool_cap,omitempty"`
	// Precision selects the numeric width of the fine-tuning stages:
	// PrecisionAuto (the default) stays float64 until the pair passes the
	// ANN cell threshold, PrecisionF64 forces the full-width path
	// (bit-identical to leaving the knob unset on small pairs), and
	// PrecisionF32 rounds candidate generation to the float32 tier —
	// top-k and ANN backends only; a resolved dense backend rejects it
	// (ErrBadPrecision) rather than silently ignoring it.
	Precision Precision `json:"precision,omitempty"`
	// RefineIters runs that many RefiNA iterations over the integrated
	// similarity as pipeline stage 6 (see internal/refine): each
	// iteration boosts pairs whose matched neighbors agree, injects a
	// bounded token-match mass, and renormalises rows then columns. The
	// default 0 skips the stage entirely — bit-identical to the pipeline
	// before refinement existed. Negative values are rejected
	// (ErrBadRefineParam).
	RefineIters int `json:"refine_iters,omitempty"`
	// RefineTokenK bounds the refinement token-match budget: per source
	// row, only the RefineTokenK strongest neighbor-supported columns
	// can enter the candidate support each iteration. 0 (the default)
	// resolves to the row budget — every column on the dense backend,
	// the candidate count on the top-k/ANN backends. Setting it without
	// RefineIters is rejected rather than silently ignored
	// (ErrBadRefineParam), as is a negative value.
	RefineTokenK int `json:"refine_token_k,omitempty"`
	// Seed drives every random choice (weight init); equal seeds give
	// bit-identical runs.
	//lint:allow knobcover every int64 is a valid seed, so there is nothing to default or reject
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the CPU fan-out of the whole pipeline: orbit
	// counting, the per-epoch training passes, the per-orbit fine-tuning
	// loops and the dense kernels underneath all share this one budget.
	// 0 (the default) means GOMAXPROCS; the server lowers it per job so
	// concurrent alignments don't oversubscribe the machine. Workers is a
	// pure performance knob — results are bit-identical for every value —
	// so it does not participate in result caching.
	Workers int `json:"workers,omitempty"`
	// KeepEmbeddings retains the per-orbit embeddings of each orbit's
	// best fine-tuning iteration in the Result (memory-heavy; used by
	// the Fig. 11 visualisation).
	KeepEmbeddings bool `json:"keep_embeddings,omitempty"`
	// Progress, when non-nil, observes the run: stage boundaries, every
	// training epoch, every fine-tuning iteration. Calls are serialised
	// (the observer never races with itself) and carry no allocation, so
	// a server can mirror them into a job-status endpoint. Progress is a
	// pure observation channel — it never influences the result — so,
	// like Workers, it is excluded from JSON serialisation and result
	// caching.
	//lint:allow knobcover progress observers never influence the result, so cache identity may ignore them
	Progress Observer `json:"-"`
	// Seeds are known anchor links (source, target). HTC is fully
	// unsupervised, but Proposition 2 treats "trusted (or known)" anchor
	// nodes uniformly: when seeds are supplied they are reinforced
	// before the first fine-tuning iteration, giving the semi-supervised
	// HTC-S mode. Variants without fine-tuning ignore them.
	Seeds [][2]int `json:"anchor_seeds,omitempty"`
}

// WithDefaults returns the config with every unset field replaced by the
// paper's default, i.e. the exact configuration Align will run. Callers
// that key caches or logs on a Config should normalise through
// WithDefaults first so that equivalent configs compare equal.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.K <= 0 || c.K > orbit.NumOrbits {
		c.K = orbit.NumOrbits
	}
	if c.Hidden <= 0 {
		c.Hidden = 128
	}
	if c.Embed <= 0 {
		c.Embed = 64
	}
	if c.Layers != 3 {
		c.Layers = 2
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.LR <= 0 {
		c.LR = 0.01
	}
	if c.M <= 0 {
		c.M = 20
	}
	if c.Beta <= 1 {
		c.Beta = 1.1
	}
	if c.MaxFineTuneIters <= 0 {
		c.MaxFineTuneIters = 30
	}
	if c.Patience < 0 {
		// Negative patience trains the full budget exactly like 0
		// (nn.Train only engages early stopping when positive);
		// normalising here makes the two spellings share one cache
		// identity.
		c.Patience = 0
	}
	if c.DiffusionAlpha <= 0 || c.DiffusionAlpha >= 1 {
		c.DiffusionAlpha = 0.15
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	return c
}

// autoDenseCells is the SimAuto crossover: pairs whose score matrices
// would exceed this many cells (≈ 134 MB per ns×nt float64 buffer, and
// the fine-tuning loop holds several) switch to the top-k backend. At
// 4096×4096 a dense run is still comfortable on a laptop; well beyond it
// the dense working set grows quadratically while top-k stays O(n·k).
const autoDenseCells = 1 << 24

// autoAnnCells is the second SimAuto crossover: past this many score
// cells (≈ 32k×32k) even the exact blocked top-k scan — O(ns·nt)
// compute, if not memory — dominates the run, so SimAuto switches to the
// ANN candidate generator. The auto probe budget keeps measured recall
// against the exact lists ≥ 0.95 (see internal/ann).
const autoAnnCells = 1 << 30

// ResolveSimilarity resolves the configured backend against a concrete
// pair size: SimAuto picks dense, top-k or ann by cell count, and the
// candidate count of the non-dense backends defaults to max(32, 2·M)
// clamped to the larger side. The returned backend is never SimAuto; k
// is 0 for the dense backend.
func (c Config) ResolveSimilarity(ns, nt int) (backend SimBackend, k int) {
	c = c.withDefaults()
	backend = c.Similarity
	if backend == SimAuto {
		switch cells := int64(ns) * int64(nt); {
		case cells > autoAnnCells:
			backend = SimANN
		case cells > autoDenseCells:
			backend = SimTopK
		default:
			backend = SimDense
		}
	}
	if backend != SimTopK && backend != SimANN {
		return SimDense, 0
	}
	k = c.CandidateK
	if k <= 0 {
		k = 2 * c.M
		if k < 32 {
			k = 32
		}
	}
	max := ns
	if nt > max {
		max = nt
	}
	if k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return backend, k
}

// ResolveAnn resolves the ANN index parameters against a concrete pair
// size: zero AnnBits sizes the code width from the larger side
// (ann.AutoBits — both directions of the fine-tuning loop index one of
// the two sides), zero AnnProbes picks the recall-calibrated default
// (ann.AutoProbes). Meaningful only when ResolveSimilarity returns
// SimANN.
func (c Config) ResolveAnn(ns, nt int) (bits, probes int) {
	bits = c.AnnBits
	if bits <= 0 {
		max := ns
		if nt > max {
			max = nt
		}
		bits = ann.AutoBits(max)
	}
	probes = c.AnnProbes
	if probes <= 0 {
		probes = ann.AutoProbes(bits)
	}
	return bits, probes
}

// ResolvePrecision resolves the configured precision tier against a
// concrete pair size. PrecisionAuto flips to float32 past the same cell
// threshold that flips SimAuto to the ANN backend, except under a
// resolved dense backend, which has no float32 tier and always runs
// float64. The returned tier is never PrecisionAuto.
func (c Config) ResolvePrecision(ns, nt int) Precision {
	if c.Precision != PrecisionAuto {
		return c.Precision
	}
	if backend, _ := c.ResolveSimilarity(ns, nt); backend == SimDense {
		return PrecisionF64
	}
	if int64(ns)*int64(nt) > autoAnnCells {
		return PrecisionF32
	}
	return PrecisionF64
}

// ValidateSimilarity checks the similarity knobs for contradictions —
// out-of-range values, and knobs that the resolved backend would
// silently ignore (a config bug better rejected than swallowed). With a
// concrete pair size the check runs against the backend the run would
// actually resolve to; with ns = nt = 0 (no pair at hand yet) only
// size-independent contradictions are reported, so a sizeless check
// never rejects a config a later sized check would accept.
func (c Config) ValidateSimilarity(ns, nt int) error {
	if c.CandidateK < 0 {
		return fmt.Errorf("%w: candidate_k = %d", ErrBadCandidateK, c.CandidateK)
	}
	if c.AnnBits < 0 || c.AnnBits > ann.MaxBits {
		return fmt.Errorf("%w: ann_bits = %d (want 0 for automatic, or 1..%d)", ErrBadAnnParam, c.AnnBits, ann.MaxBits)
	}
	if c.AnnProbes < 0 {
		return fmt.Errorf("%w: ann_probes = %d (want 0 for automatic, or ≥ 1)", ErrBadAnnParam, c.AnnProbes)
	}
	if c.AnnPoolCap < 0 {
		return fmt.Errorf("%w: ann_pool_cap = %d (want 0 for unbounded, or ≥ 1)", ErrBadAnnParam, c.AnnPoolCap)
	}
	if c.Precision < PrecisionAuto || c.Precision > PrecisionF32 {
		return fmt.Errorf("%w: precision = %d (want auto, f64 or f32)", ErrBadPrecision, int(c.Precision))
	}
	if c.RefineIters < 0 {
		return fmt.Errorf("%w: refine_iters = %d (want 0 for no refinement, or ≥ 1)", ErrBadRefineParam, c.RefineIters)
	}
	if c.RefineTokenK < 0 {
		return fmt.Errorf("%w: refine_token_k = %d (want 0 for the automatic budget, or ≥ 1)", ErrBadRefineParam, c.RefineTokenK)
	}
	if c.RefineTokenK > 0 && c.RefineIters == 0 {
		return fmt.Errorf("%w: refine_token_k = %d but refine_iters = 0 runs no refinement", ErrBadRefineParam, c.RefineTokenK)
	}
	backend := c.Similarity
	if backend == SimAuto {
		if ns == 0 && nt == 0 {
			// No pair size: auto could legitimately resolve to any
			// backend, so no ignored-knob conclusion can be drawn.
			return nil
		}
		backend, _ = c.ResolveSimilarity(ns, nt)
	}
	if backend == SimDense && c.CandidateK > 0 {
		return fmt.Errorf("%w: candidate_k = %d but the %s backend scores every pair", ErrIgnoredSimKnob, c.CandidateK, backend)
	}
	if backend != SimANN && (c.AnnBits > 0 || c.AnnProbes > 0 || c.AnnPoolCap > 0) {
		return fmt.Errorf("%w: ann_bits/ann_probes/ann_pool_cap set but the resolved backend is %s, not ann", ErrIgnoredSimKnob, backend)
	}
	if backend == SimDense && c.Precision == PrecisionF32 {
		return fmt.Errorf("%w: precision = f32 but the %s backend has no float32 tier (use topk or ann, or leave precision auto)", ErrBadPrecision, backend)
	}
	return nil
}

// StageTimings decomposes a run's wall-clock time into the stages of the
// paper's Fig. 8, alongside each stage's allocation traffic: the *Bytes
// fields are deltas of runtime.MemStats.TotalAlloc taken at the same
// boundaries as the durations. TotalAlloc is process-global and
// monotonic, so a delta counts every byte allocated while the stage ran
// — including concurrent stages of other jobs on a busy server — which
// makes the numbers an observability signal, not an exact attribution.
// On an otherwise-idle run (the CLIs, the benchmarks) they are the
// stage's own allocations.
type StageTimings struct {
	OrbitCounting time.Duration
	Laplacians    time.Duration
	Training      time.Duration
	FineTuning    time.Duration
	Integration   time.Duration
	Refinement    time.Duration
	Total         time.Duration

	OrbitCountingBytes uint64
	LaplaciansBytes    uint64
	TrainingBytes      uint64
	FineTuningBytes    uint64
	IntegrationBytes   uint64
	RefinementBytes    uint64
	TotalBytes         uint64
}

// Other returns the residual time not attributed to a named stage
// (feature preparation and bookkeeping).
func (s StageTimings) Other() time.Duration {
	o := s.Total - s.OrbitCounting - s.Laplacians - s.Training - s.FineTuning - s.Integration - s.Refinement
	if o < 0 {
		return 0
	}
	return o
}

// OtherBytes returns the allocation residual not attributed to a named
// stage.
func (s StageTimings) OtherBytes() uint64 {
	named := s.OrbitCountingBytes + s.LaplaciansBytes + s.TrainingBytes + s.FineTuningBytes + s.IntegrationBytes + s.RefinementBytes
	if named > s.TotalBytes {
		return 0
	}
	return s.TotalBytes - named
}

// String renders the decomposition in milliseconds plus the per-stage
// allocation deltas — the line the htc-align CLI prints after a run.
// The refinement column appears only when the stage ran, keeping the
// common no-refinement line unchanged.
func (s StageTimings) String() string {
	refine := ""
	refineAlloc := ""
	if s.Refinement > 0 || s.RefinementBytes > 0 {
		refine = fmt.Sprintf(" refine=%v", s.Refinement.Round(time.Millisecond))
		refineAlloc = fmt.Sprintf(" refine=%s", fmtBytes(s.RefinementBytes))
	}
	return fmt.Sprintf("orbit=%v laplacian=%v train=%v finetune=%v integrate=%v%s other=%v total=%v"+
		" alloc[orbit=%s laplacian=%s train=%s finetune=%s integrate=%s%s other=%s total=%s]",
		s.OrbitCounting.Round(time.Millisecond), s.Laplacians.Round(time.Millisecond),
		s.Training.Round(time.Millisecond), s.FineTuning.Round(time.Millisecond),
		s.Integration.Round(time.Millisecond), refine, s.Other().Round(time.Millisecond),
		s.Total.Round(time.Millisecond),
		fmtBytes(s.OrbitCountingBytes), fmtBytes(s.LaplaciansBytes),
		fmtBytes(s.TrainingBytes), fmtBytes(s.FineTuningBytes),
		fmtBytes(s.IntegrationBytes), refineAlloc, fmtBytes(s.OtherBytes()), fmtBytes(s.TotalBytes))
}

// allocBytes reads the process's cumulative allocation counter — the
// probe behind the per-stage *Bytes deltas. ReadMemStats costs a short
// stop-the-world; it runs a handful of times per align, at stage
// boundaries only.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fmtBytes renders a byte count with one decimal in the largest binary
// unit that keeps the mantissa below 1024.
func fmtBytes(b uint64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := uint64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(b)/float64(div), "KMGTPE"[exp])
}
