package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/metrics"
)

// TestBackendEquivalence is the pipeline-level proof of the backend
// abstraction, with and without RefiNA refinement: on one prepared Econ
// pair (120 nodes against a 10%-edge-removed copy), every variant at
// refine_iters 0 and 3 runs on the dense backend, on topk at k = n and on
// ann at full probe (the exactness escape hatch), and each candidate-list
// run must equal the dense one — the same per-orbit trusted counts,
// weights and iterations, every cell's bits, Predict, each row's Scan
// order (the dense Scan's stable best-first sort), greedy matching,
// evaluation and the MNC trace. Column normalisation reorders a refined
// row, so a candidate path that skipped its final best-first sort would
// still match every cell while Scan and Predict disagree with dense.
func TestBackendEquivalence(t *testing.T) {
	const n = 120
	gs := datasets.Econ(n, 1)
	gt, truth := datasets.MakeTarget(gs, 0.1, 1)
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range Variants() {
		for _, refine := range []int{0, 3} {
			base := Config{Variant: v, Hidden: 32, Embed: 16, Epochs: 10, MaxFineTuneIters: 5, RefineIters: refine, Seed: 1}
			t.Run(fmt.Sprintf("%v/refine=%d", v, refine), func(t *testing.T) {
				want, err := p.Align(base)
				if err != nil {
					t.Fatal(err)
				}
				if want.SimBackend != "dense" {
					t.Fatalf("base run resolved %q, want dense", want.SimBackend)
				}
				wm := want.Sim.Dense()
				wantScan := scanRows(want.Sim)
				wantRep := metrics.Evaluate(wm, truth, 1, 5, 10)
				for _, b := range []struct {
					name   string
					sim    SimBackend
					bits   int
					probes int
				}{{"topk", SimTopK, 0, 0}, {"ann", SimANN, 4, 16}} {
					t.Run(b.name, func(t *testing.T) {
						cfg := base
						cfg.Similarity, cfg.CandidateK, cfg.AnnBits, cfg.AnnProbes = b.sim, n, b.bits, b.probes
						got, err := p.Align(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got.SimBackend != b.name {
							t.Fatalf("run resolved %q", got.SimBackend)
						}
						if !reflect.DeepEqual(want.PerOrbit, got.PerOrbit) {
							t.Fatalf("per-orbit outcomes:\ndense %+v\ngot   %+v", want.PerOrbit, got.PerOrbit)
						}
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								g, ok := got.Sim.At(i, j)
								if w := wm.At(i, j); !ok || math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("score (%d,%d): dense %v, got %v (ok=%v)", i, j, w, g, ok)
								}
							}
						}
						if !reflect.DeepEqual(want.Predict(), got.Predict()) {
							t.Fatal("Predict differs from dense")
						}
						gotScan := scanRows(got.Sim)
						for i := range wantScan {
							if !reflect.DeepEqual(wantScan[i], gotScan[i]) {
								t.Fatalf("row %d: Scan order differs from dense", i)
							}
						}
						if !reflect.DeepEqual(align.GreedyMatch(wm), got.MatchOneToOne()) {
							t.Fatal("greedy matching differs from dense")
						}
						if rep := metrics.EvaluateSim(got.Sim, truth, 1, 5, 10); !reflect.DeepEqual(wantRep, rep) {
							t.Fatalf("evaluation: dense %v, got %v", wantRep, rep)
						}
						if !reflect.DeepEqual(want.RefineMNC, got.RefineMNC) {
							t.Fatalf("MNC trace: dense %v, got %v", want.RefineMNC, got.RefineMNC)
						}
					})
				}
			})
		}
	}
}

// scanRows records every row's Scan: (column, score bits) in visit order.
func scanRows(s align.Sim) [][][2]uint64 {
	rows, _ := s.Dims()
	out := make([][][2]uint64, rows)
	for i := range out {
		s.Scan(i, func(j int, v float64) {
			out[i] = append(out[i], [2]uint64{uint64(j), math.Float64bits(v)})
		})
	}
	return out
}

// TestAlignTopKBounded runs the top-k backend with a small k on a pair
// where it genuinely prunes, and checks the run stays functional: sparse
// result shape, candidate budget respected, decent accuracy on an easy
// pair.
func TestAlignTopKBounded(t *testing.T) {
	n := 60
	gs, gt, truth := noisyPair(n, 0.05, 5)
	cfg := quickConfig(Full)
	cfg.Similarity = SimTopK
	cfg.CandidateK = 8
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimBackend != "topk" || res.CandidateK != 8 {
		t.Fatalf("backend %q k=%d", res.SimBackend, res.CandidateK)
	}
	rows, cols := res.Sim.Dims()
	if rows != n || cols != n {
		t.Fatalf("sim dims %dx%d", rows, cols)
	}
	// The integrated candidate union across K orbits is bounded by K·k.
	maxUnion := len(res.PerOrbit) * 8
	for i := 0; i < rows; i++ {
		count := 0
		res.Sim.Scan(i, func(int, float64) { count++ })
		if count == 0 || count > maxUnion {
			t.Fatalf("row %d has %d candidates (bound %d)", i, count, maxUnion)
		}
	}
	rep := metrics.EvaluateSim(res.Sim, truth, 1)
	if rep.PrecisionAt[1] < 0.5 {
		t.Fatalf("p@1 = %.3f under top-k on an easy pair", rep.PrecisionAt[1])
	}
}

// TestAlignNegativeCandidateK: a negative candidate count is a caller
// bug, reported as ErrBadCandidateK rather than silently defaulted.
func TestAlignNegativeCandidateK(t *testing.T) {
	gs, gt, _ := noisyPair(12, 0, 1)
	cfg := quickConfig(LowOrder)
	cfg.CandidateK = -1
	if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrBadCandidateK) {
		t.Fatalf("err = %v, want ErrBadCandidateK", err)
	}
}

// TestResolveSimilarity covers the auto crossover and the candidate-count
// defaulting.
func TestResolveSimilarity(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		ns, nt      int
		wantBackend SimBackend
		wantK       int
	}{
		{"auto small stays dense", Config{}, 1000, 1000, SimDense, 0},
		{"auto large flips to topk", Config{}, 5000, 5000, SimTopK, 40},
		{"forced dense stays dense even huge", Config{Similarity: SimDense}, 9000, 9000, SimDense, 0},
		{"forced topk on small pair", Config{Similarity: SimTopK}, 100, 80, SimTopK, 40},
		{"explicit k wins", Config{Similarity: SimTopK, CandidateK: 7}, 100, 80, SimTopK, 7},
		{"k clamped to pair size", Config{Similarity: SimTopK, CandidateK: 500}, 100, 80, SimTopK, 100},
		{"default k floors at 32", Config{Similarity: SimTopK, M: 5}, 5000, 5000, SimTopK, 32},
		{"forced ann on small pair", Config{Similarity: SimANN}, 100, 80, SimANN, 40},
		{"auto huge flips to ann", Config{}, 40000, 40000, SimANN, 40},
		{"auto mid-size stays topk", Config{}, 30000, 30000, SimTopK, 40},
		{"explicit k wins on ann", Config{Similarity: SimANN, CandidateK: 7}, 100, 80, SimANN, 7},
	}
	for _, tc := range cases {
		b, k := tc.cfg.ResolveSimilarity(tc.ns, tc.nt)
		if b != tc.wantBackend || k != tc.wantK {
			t.Errorf("%s: got (%v, %d), want (%v, %d)", tc.name, b, k, tc.wantBackend, tc.wantK)
		}
	}
}

// TestSimBackendJSON locks the config wire format: backends travel by
// name, unknown names fail, and the zero value (auto) is omitted.
func TestSimBackendJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SimBackend
	}{{"auto", SimAuto}, {"dense", SimDense}, {"topk", SimTopK}, {"TOP-K", SimTopK}, {"ann", SimANN}, {"LSH", SimANN}} {
		got, err := ParseSimBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSimBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSimBackend("cosine"); err == nil {
		t.Error("unknown backend accepted")
	}
	var s SimBackend
	if err := s.UnmarshalText([]byte("topk")); err != nil || s != SimTopK {
		t.Errorf("UnmarshalText: %v, %v", s, err)
	}
	blob, err := SimTopK.MarshalText()
	if err != nil || string(blob) != "topk" {
		t.Errorf("MarshalText: %q, %v", blob, err)
	}
}
