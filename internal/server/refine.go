package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/refine"
)

// The /v1/refine service limits: the endpoint runs synchronously inside
// the HTTP handler (a refinement over an already-computed matching is
// orders of magnitude cheaper than an alignment job), so the iteration
// count is defaulted and capped rather than unbounded.
const (
	// DefaultRefineIters is the iteration count a request with
	// refine_iters = 0 runs.
	DefaultRefineIters = 5
	// MaxRefineIters bounds refine_iters per request.
	MaxRefineIters = 64
	// defaultRefineBudget is the per-row candidate budget a refined
	// matching may grow to when the request leaves refine_token_k at 0.
	defaultRefineBudget = 16
)

// RefineRequest is the body of POST /v1/refine: RefiNA-refine an
// existing alignment against its graph pair. Exactly one input shape is
// accepted — a finished single-config alignment job (Job), or a
// name-keyed matching over an uploaded dataset (Dataset + Matching).
type RefineRequest struct {
	// Job names a finished POST /v1/align job whose one-to-one matching
	// is refined against the job's own graph pair.
	Job string `json:"job,omitempty"`
	// Dataset names an uploaded dataset (PUT /v1/datasets/{id}) the
	// matching below refers to.
	Dataset string `json:"dataset,omitempty"`
	// Matching lists (source id, target id) pairs keyed by the dataset's
	// external node ids — an alignment produced outside this server.
	Matching [][2]string `json:"matching,omitempty"`
	// RefineIters is the RefiNA iteration count (0 = DefaultRefineIters,
	// capped at MaxRefineIters).
	RefineIters int `json:"refine_iters,omitempty"`
	// RefineTokenK bounds the token-match budget per row (0 = the row
	// candidate budget; see internal/refine).
	RefineTokenK int `json:"refine_token_k,omitempty"`
	// HitsAt lists the precision@q cutoffs for the before/after
	// evaluation (default 1, 5, 10; used only when truth is available).
	HitsAt []int `json:"hits_at,omitempty"`
}

// validate performs the checks that don't require graphs; every failure
// maps to a 400.
func (r *RefineRequest) validate() error {
	hasJob, hasDataset := r.Job != "", r.Dataset != ""
	switch {
	case hasJob && hasDataset:
		return fmt.Errorf("refine takes a job id or a dataset+matching, not both")
	case !hasJob && !hasDataset:
		return fmt.Errorf("refine needs either a job id or a dataset+matching")
	case hasJob && len(r.Matching) > 0:
		return fmt.Errorf("a job id implies its own matching; the matching field applies to dataset requests")
	case hasDataset && len(r.Matching) == 0:
		return fmt.Errorf("dataset requests need a non-empty matching")
	}
	if r.RefineIters < 0 || r.RefineIters > MaxRefineIters {
		return fmt.Errorf("refine_iters = %d outside [0, %d] (0 runs the default %d)", r.RefineIters, MaxRefineIters, DefaultRefineIters)
	}
	if r.RefineTokenK < 0 {
		return fmt.Errorf("refine_token_k = %d (want 0 for the automatic budget, or ≥ 1)", r.RefineTokenK)
	}
	return validateHitsAt(r.HitsAt)
}

// iters resolves the requested iteration count.
func (r *RefineRequest) iters() int {
	if r.RefineIters == 0 {
		return DefaultRefineIters
	}
	return r.RefineIters
}

// RefineResult is the payload of POST /v1/refine.
type RefineResult struct {
	// Input names the input shape the request used ("job" or "dataset").
	Input string `json:"input"`
	// Iters and TokenK echo the resolved refinement parameters.
	Iters  int `json:"iters"`
	TokenK int `json:"token_k"`
	// MNC traces matched-neighborhood consistency: entry 0 is the input
	// matching's score, entry i the score after iteration i.
	MNC []float64 `json:"mnc"`
	// Pairs is the refined one-to-one matching: (source node, target
	// node) indices.
	Pairs [][2]int `json:"pairs"`
	// PairsNamed mirrors Pairs through the pair's external node ids when
	// a non-trivial id dictionary exists.
	PairsNamed [][2]string `json:"pairs_named,omitempty"`
	// EvalBefore and EvalAfter score the input and refined matchings
	// against the pair's ground truth (absent without truth).
	EvalBefore *EvalReport `json:"eval_before,omitempty"`
	EvalAfter  *EvalReport `json:"eval_after,omitempty"`
	// RefineMS is the refinement wall-clock cost in milliseconds.
	RefineMS float64 `json:"refine_ms"`
	// WorkersUsed is the CPU budget the refinement ran with.
	WorkersUsed int `json:"workers_used,omitempty"`
	// Cached reports that the result was served from the refine cache.
	Cached bool `json:"cached"`
}

// handleRefine serves POST /v1/refine synchronously: resolve the input
// matching and its graph pair, run RefiNA, extract the refined matching
// and the before/after metrics.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	var req RefineRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	var (
		pair     *datasets.Pair
		match    []int
		identity string
		input    string
	)
	if req.Job != "" {
		job, ok := s.queue.Get(req.Job)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("no such job %q", req.Job))
			return
		}
		info := job.Info()
		switch {
		case info.Status != StatusDone:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %q is %s; only done jobs can be refined", req.Job, info.Status))
			return
		case info.Result == nil:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("job %q is a sweep; refine takes single-config alignment jobs", req.Job))
			return
		}
		p, err := resolvePair(job.Req, s.opts.MaxNodes)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		pair = p
		match = make([]int, pair.Source.N())
		for i := range match {
			match[i] = -1
		}
		for _, pr := range info.Result.Pairs {
			match[pr[0]] = pr[1]
		}
		// The job's cache key is the content identity of its request, and
		// the matching is a deterministic function of it.
		identity = "job:" + job.CacheKey
		input = "job"
	} else {
		ds, ok := s.datasets.get(req.Dataset)
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("no such uploaded dataset %q", req.Dataset))
			return
		}
		pair = ds.pair
		m, err := matchingFromPairs(req.Matching, pair)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		match = m
		identity = "dataset:" + ds.contentHash()
		input = "dataset"
	}

	iters := req.iters()
	qs := sortedCutoffs(req.HitsAt)
	key := refineKey(identity, match, iters, req.RefineTokenK, qs)
	if cached, ok := s.refines.get(key); ok {
		s.metrics.RefineCacheHits.Add(1)
		cached.Cached = true
		writeJSON(w, http.StatusOK, cached)
		return
	}

	budget := req.RefineTokenK
	if budget == 0 {
		budget = defaultRefineBudget
	}
	sim, err := refine.FromMatching(match, pair.Target.N(), budget)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	workers := perJobWorkers(runtime.GOMAXPROCS(0), s.opts.Workers)
	start := time.Now()
	res, err := refine.Refine(sim, pair.Source, pair.Target, refine.Options{
		Iters: iters, TokenK: req.RefineTokenK, Workers: workers, Ctx: r.Context(),
	})
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away mid-refinement; nothing to answer
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.metrics.RefineRuns.Add(1)
	s.metrics.RefineIterations.Add(int64(iters))

	out := &RefineResult{
		Input: input, Iters: iters, TokenK: res.TokenK, MNC: res.MNC,
		RefineMS:    float64(time.Since(start)) / float64(time.Millisecond),
		WorkersUsed: workers,
	}
	out.Pairs = matchPairs(align.GreedyMatchSim(res.Sim))
	out.PairsNamed = namedPairs(out.Pairs, pair)
	out.EvalBefore = evalReport(sim, pair.Truth, qs)
	out.EvalAfter = evalReport(res.Sim, pair.Truth, qs)
	s.refines.put(key, *out)
	if s.opts.Log != nil {
		s.opts.Log.Printf("refine (%s) ran %d iters in %.0fms (%d pairs)", input, iters, out.RefineMS, len(out.Pairs))
	}
	writeJSON(w, http.StatusOK, out)
}

// matchingFromPairs resolves a name-keyed matching through the pair's id
// dictionaries into the index-keyed form, rejecting unknown ids and
// conflicting duplicates.
func matchingFromPairs(pairs [][2]string, pair *datasets.Pair) ([]int, error) {
	match := make([]int, pair.Source.N())
	for i := range match {
		match[i] = -1
	}
	for _, p := range pairs {
		s, ok := pair.SourceIDs.Index(p[0])
		if !ok {
			return nil, fmt.Errorf("matching names unknown source node %q", p[0])
		}
		t, ok := pair.TargetIDs.Index(p[1])
		if !ok {
			return nil, fmt.Errorf("matching names unknown target node %q", p[1])
		}
		if match[s] >= 0 && match[s] != t {
			return nil, fmt.Errorf("matching sends source node %q to two different targets", p[0])
		}
		match[s] = t
	}
	return match, nil
}

// refineKey derives the refine cache identity: the input matching's
// content identity plus the resolved matching and every knob that shapes
// the response.
func refineKey(identity string, match []int, iters, tokenK int, hitsAt []int) string {
	blob, _ := json.Marshal(struct {
		Identity string `json:"identity"`
		Match    []int  `json:"match"`
		Iters    int    `json:"iters"`
		TokenK   int    `json:"token_k"`
		HitsAt   []int  `json:"hits_at"`
	}{identity, match, iters, tokenK, hitsAt})
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
