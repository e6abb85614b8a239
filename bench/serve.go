package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/server"
)

// The serve-mixed traffic: a closed loop of serveClients clients, each
// sending its next request only after the previous one is answered,
// over at most serveClients keep-alive connections to a server with
// serveWorkers alignment workers. Neither exceeds the two cores the
// benchmark host has.
const (
	serveClients = 2
	serveWorkers = 2
	pollEvery    = 2 * time.Millisecond
	// freshFloor is the p@1 every fresh douban job must reach.
	freshFloor = 0.85
	// hitPool is how many of the latest bodies hit requests draw from:
	// few enough that all are still in the server's 128-entry result
	// cache, which every align and sweep entry passes through.
	hitPool = 16
)

// The request classes.
const (
	classHit    = "hit"    // resubmits an earlier body: a result-cache hit
	classLight  = "light"  // a small synthetic HTC-L job (~25 ms)
	classRefine = "refine" // POST /v1/refine of a finished fresh job
	classFresh  = "fresh"  // a new douban job, full HTC (~0.4 s)
	classSweep  = "sweep"  // three configs over the uploaded pair: prepared-cache hits
)

// serveDeck is one cycle of the mix; each client deals it shuffled, so
// every run sends the same proportions: 35% fresh, 25% light, 25% hit,
// 10% sweep, 5% refine. The mix is assumed: there is no traffic log to
// derive it from (README.md).
var serveDeck = []struct {
	class string
	count int
}{{classFresh, 7}, {classLight, 5}, {classHit, 5}, {classSweep, 2}, {classRefine, 1}}

// serveSizes are the node counts of the three datasets the traffic uses.
type serveSizes struct{ fresh, light, pair int }

// serveEnv is one started server plus the client state shared by the
// clients of a run.
type serveEnv struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	sizes  serveSizes
	seed   int64
	// next numbers the generated jobs; each gets its own data seed, so
	// fresh and light requests never hit the result cache.
	next atomic.Int64

	mu     sync.Mutex
	bodies [][]byte // the latest hitPool align bodies, for hit requests
	jobs   []string // finished fresh jobs not yet refined, newest last
	last   string   // the newest finished fresh job
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// startServe starts a server behind a loopback listener and uploads the
// edge-list pair the sweep requests align.
func startServe(sizes serveSizes, seed int64) (*serveEnv, error) {
	srv := server.New(server.Options{Workers: serveWorkers})
	e := &serveEnv{
		srv:   srv,
		ts:    httptest.NewServer(srv),
		sizes: sizes,
		seed:  seed,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
			Timeout:   2 * time.Minute,
		},
	}
	src, tgt := edgeListPair(sizes.pair, 4, 0.05, seed)
	body, err := json.Marshal(server.DatasetUpload{Format: "edgelist", Source: string(src), Target: string(tgt)})
	if err != nil {
		e.close()
		return nil, err
	}
	var info server.DatasetInfo
	if code, err := e.call(http.MethodPut, "/v1/datasets/bench-pair", body, &info); err != nil || code != http.StatusCreated {
		e.close()
		return nil, fmt.Errorf("dataset upload: status %d: %v", code, err)
	}
	return e, nil
}

// call sends one request and decodes a 2xx JSON answer into out.
func (e *serveEnv) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s", method, path, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// reqRecord is one request's measurements.
type reqRecord struct {
	class   string
	latency time.Duration
	// queue and run are the server's own timestamps: queued → started →
	// finished (zero for answers served without a job run).
	queue, run time.Duration
	polls      int
	status     int
	// runs are the pipeline runs this request paid for.
	runs []*server.AlignResult
	// refined is the answer of a refine request.
	refined *server.RefineResult
	// eval is the fresh job's score against its ground truth.
	eval    *server.EvalReport
	problem string
}

// do sends one request of the class and waits for its answer.
func (e *serveEnv) do(class string, rng *rand.Rand) reqRecord {
	rec := reqRecord{class: class}
	t0 := time.Now()
	var err error
	switch class {
	case classFresh, classLight:
		err = e.alignJob(class, &rec)
	case classHit:
		err = e.hit(rng, &rec)
	case classSweep:
		err = e.sweep(&rec)
	case classRefine:
		err = e.refine(&rec)
	default:
		err = fmt.Errorf("unknown class %q", class)
	}
	rec.latency = time.Since(t0)
	if err != nil {
		rec.problem = fmt.Sprintf("%s: %v", class, err)
	}
	return rec
}

func (e *serveEnv) alignBody(class string) ([]byte, error) {
	k := e.next.Add(1)
	req := server.AlignRequest{DataSeed: e.seed*1_000_000 + k}
	switch class {
	case classFresh:
		req.Dataset, req.N = "douban", e.sizes.fresh
		req.Config = core.Config{Hidden: 32, Embed: 16, Epochs: 20, Seed: 1}
	default:
		req.Dataset, req.N = "synthetic", e.sizes.light
		req.Config = core.Config{Variant: core.LowOrder, Hidden: 16, Embed: 8, Epochs: 10, Seed: 1}
	}
	return json.Marshal(req)
}

// alignJob submits a new fresh or light job and polls it to the end.
func (e *serveEnv) alignJob(class string, rec *reqRecord) error {
	body, err := e.alignBody(class)
	if err != nil {
		return err
	}
	info, err := e.submit("/v1/align", body, rec)
	if err != nil {
		return err
	}
	res := info.Result
	if res == nil {
		return fmt.Errorf("job %s finished without a result", info.ID)
	}
	if res.Cached {
		return fmt.Errorf("new job %s was served from the cache", info.ID)
	}
	rec.runs = append(rec.runs, res)
	if err := checkPairs(res.Pairs); err != nil {
		return err
	}
	e.mu.Lock()
	e.bodies = append(e.bodies, body)
	if len(e.bodies) > hitPool {
		e.bodies = e.bodies[1:]
	}
	if class == classFresh {
		e.jobs = append(e.jobs, info.ID)
		e.last = info.ID
	}
	e.mu.Unlock()
	if class == classFresh {
		if res.Eval == nil {
			return fmt.Errorf("fresh job %s has no evaluation", info.ID)
		}
		rec.eval = res.Eval
		if p1 := res.Eval.PrecisionAt[1]; p1 < freshFloor {
			return fmt.Errorf("fresh job %s p@1 %.3f below %.2f", info.ID, p1, freshFloor)
		}
	}
	return nil
}

// hit resubmits a random earlier body; the answer must come from the
// result cache.
func (e *serveEnv) hit(rng *rand.Rand, rec *reqRecord) error {
	e.mu.Lock()
	body := e.bodies[rng.Intn(len(e.bodies))]
	e.mu.Unlock()
	info, err := e.submit("/v1/align", body, rec)
	if err != nil {
		return err
	}
	if info.Result == nil || !info.Result.Cached {
		return fmt.Errorf("resubmitted body was not served from the cache")
	}
	return nil
}

// sweep runs three new configs over the uploaded pair, whose prepared
// artifacts the server already holds.
func (e *serveEnv) sweep(rec *reqRecord) error {
	k := e.next.Add(1)
	req := server.AlignRequest{Dataset: "bench-pair"}
	for i := int64(0); i < 3; i++ {
		req.Configs = append(req.Configs, core.Config{
			Variant: core.LowOrderFT, Hidden: 32, Embed: 16, Epochs: 20, MaxFineTuneIters: 5, Seed: 3*k + i,
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	info, err := e.submit("/v1/sweep", body, rec)
	if err != nil {
		return err
	}
	if info.Sweep == nil || len(info.Sweep.Results) != len(req.Configs) {
		return fmt.Errorf("sweep %s did not return %d results", info.ID, len(req.Configs))
	}
	for i, entry := range info.Sweep.Results {
		if entry.Error != "" || entry.Result == nil {
			return fmt.Errorf("sweep %s entry %d failed: %s", info.ID, i, entry.Error)
		}
		if entry.Result.Cached {
			return fmt.Errorf("sweep %s entry %d with a new seed was served from the cache", info.ID, i)
		}
		rec.runs = append(rec.runs, entry.Result)
		if err := checkPairs(entry.Result.Pairs); err != nil {
			return err
		}
	}
	return nil
}

// refine refines the newest finished fresh job nobody has refined yet
// (the newest one of all when every job has been refined).
func (e *serveEnv) refine(rec *reqRecord) error {
	e.mu.Lock()
	id := e.last
	if n := len(e.jobs); n > 0 {
		id, e.jobs = e.jobs[n-1], e.jobs[:n-1]
	}
	e.mu.Unlock()
	body, err := json.Marshal(server.RefineRequest{Job: id})
	if err != nil {
		return err
	}
	var res server.RefineResult
	rec.status, err = e.call(http.MethodPost, "/v1/refine", body, &res)
	if err != nil {
		return err
	}
	if res.EvalAfter == nil {
		return fmt.Errorf("refine of %s returned no evaluation", id)
	}
	if !res.Cached {
		rec.run = time.Duration(res.RefineMS * float64(time.Millisecond))
		rec.refined = &res
	}
	return checkPairs(res.Pairs)
}

// submit posts a job and polls it until it is done. A 200 answer is a
// cache hit that needs no polling.
func (e *serveEnv) submit(path string, body []byte, rec *reqRecord) (server.JobInfo, error) {
	var info server.JobInfo
	code, err := e.call(http.MethodPost, path, body, &info)
	rec.status = code
	if err != nil {
		return info, err
	}
	for info.Status == server.StatusQueued || info.Status == server.StatusRunning {
		time.Sleep(pollEvery)
		rec.polls++
		if code, err = e.call(http.MethodGet, "/v1/jobs/"+info.ID, nil, &info); err != nil {
			rec.status = code
			return info, err
		}
	}
	if info.Status != server.StatusDone {
		return info, fmt.Errorf("job %s ended %s: %s", info.ID, info.Status, info.Error)
	}
	if info.StartedAt != nil && info.FinishedAt != nil {
		rec.queue = info.StartedAt.Sub(info.SubmittedAt)
		rec.run = info.FinishedAt.Sub(*info.StartedAt)
	}
	return info, nil
}

// checkPairs verifies a returned matching is injective on both sides.
func checkPairs(pairs [][2]int) error {
	src, tgt := make(map[int]bool, len(pairs)), make(map[int]bool, len(pairs))
	for _, p := range pairs {
		if p[0] < 0 || p[1] < 0 || src[p[0]] || tgt[p[1]] {
			return fmt.Errorf("matching is not one to one at pair %v", p)
		}
		src[p[0]], tgt[p[1]] = true, true
	}
	return nil
}

// cacheCounts snapshots the server's result- and prepared-cache counters.
type cacheCounts struct{ hits, misses, prepHits, prepMisses int64 }

func (e *serveEnv) cacheCounts() cacheCounts {
	m := e.srv.Metrics()
	return cacheCounts{m.CacheHits.Load(), m.CacheMisses.Load(), m.PreparedHits.Load(), m.PreparedMisses.Load()}
}

// serveClient is one closed-loop client: it deals itself the mix and
// keeps its requests' records.
type serveClient struct {
	rng  *rand.Rand
	deck []string
	recs []reqRecord
}

// runUntil sends requests one after another until the deadline.
func (c *serveClient) runUntil(e *serveEnv, deadline time.Time) {
	for time.Now().Before(deadline) {
		if len(c.deck) == 0 {
			c.deck = dealDeck(c.rng)
		}
		c.recs = append(c.recs, e.do(c.deck[0], c.rng))
		c.deck = c.deck[1:]
	}
}

// runServeMixed drives the server with the mixed closed-loop traffic.
// The traffic runs in slices of refEvery; between two slices, once both
// clients have their answers, the host's speed is sampled.
func runServeMixed(opts options) (*outcome, error) {
	sizes := serveSizes{fresh: 300, light: 200, pair: 500}
	if opts.smoke {
		sizes = serveSizes{fresh: 60, light: 40, pair: 60}
	}
	speed := newHostSpeed(opts)
	e, setupS, err := timeSetup(func() (*serveEnv, error) { return startServe(sizes, opts.seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer e.close()
	out := newOutcome()

	// Warm-up: one request of every class fills the pools that hit and
	// refine requests draw on, and the server's prepared-pair cache.
	rng := rand.New(rand.NewSource(opts.seed))
	for _, class := range []string{classFresh, classLight, classSweep, classHit, classRefine} {
		if rec := e.do(class, rng); rec.problem != "" {
			return nil, fmt.Errorf("warm-up: %s", rec.problem)
		}
	}
	before := e.cacheCounts()

	clients := make([]*serveClient, serveClients)
	for c := range clients {
		clients[c] = &serveClient{rng: rand.New(rand.NewSource(opts.seed*100 + int64(c) + 1))}
	}
	budget := time.Duration(opts.seconds * float64(time.Second))
	var busy time.Duration
	a0, gc0 := heapAllocs(), readGC()
	for busy < budget {
		speed.sample()
		t0 := time.Now()
		deadline := t0.Add(min(refEvery, budget-busy))
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runUntil(e, deadline)
			}()
		}
		wg.Wait()
		busy += time.Since(t0)
	}
	allocs, gc1, after := heapAllocs()-a0, readGC(), e.cacheCounts()
	speed.sample()

	var recs []reqRecord
	for _, c := range clients {
		recs = append(recs, c.recs...)
	}
	scale := speed.scale()
	out.values["setup_s"] = setupS * scale
	serveValues(out, recs, busy, allocs, scale)
	out.notes = append(out.notes, speed.String())
	if opts.trace {
		serveLayerValues(out.values, recs, before, after, scale)
		gcValues(out.values, gc0, gc1, float64(len(recs)), scale)
	}
	return out, nil
}

// dealDeck returns one shuffled cycle of the request mix.
func dealDeck(rng *rand.Rand) []string {
	var deck []string
	for _, card := range serveDeck {
		for i := 0; i < card.count; i++ {
			deck = append(deck, card.class)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// serveValues computes the end-to-end metrics of the traffic. A failed
// request counts against the failures and stays out of the latencies.
// align_s is the median of the fresh requests alone: the whole mix's
// latencies have one band per class, and a class's own median is what
// stays put from run to run. Standard error gets each class's median
// with its sample count, in wall time.
func serveValues(out *outcome, recs []reqRecord, busy time.Duration, allocs uint64, scale float64) {
	var lat, p1, mrr []float64
	byClass := map[string][]float64{}
	for _, r := range recs {
		out.attempted++
		if r.problem != "" {
			out.fail(r.problem)
			continue
		}
		lat = append(lat, ms(r.latency))
		byClass[r.class] = append(byClass[r.class], ms(r.latency))
		if r.eval != nil {
			p1 = append(p1, r.eval.PrecisionAt[1])
			mrr = append(mrr, r.eval.MRR)
		}
	}
	out.values["align_s"] = median(byClass[classFresh]) / 1e3 * scale
	out.values["align_wall_s"] = median(byClass[classFresh]) / 1e3
	out.values["req_p50_ms"] = median(lat) * scale
	out.values["req_p90_ms"] = percentile(lat, 90) * scale
	out.values["req_per_s"] = float64(len(lat)) / busy.Seconds() / scale
	out.values["alloc_mb"] = float64(allocs) / float64(len(recs)) / 1e6
	out.values["hits1"] = mean(p1)
	out.values["mrr"] = mean(mrr)
	out.notes = append(out.notes, fmt.Sprintf("%d requests in %.1f s, %d fresh jobs scored; wall, all: %s",
		len(recs), busy.Seconds(), len(p1), latencySummary(lat)))
	for _, card := range serveDeck {
		out.notes = append(out.notes, fmt.Sprintf("  %-6s %s", card.class, latencySummary(byClass[card.class])))
	}
}

// serveLayerValues computes the per-layer metrics of the traffic from
// the server's own job timestamps, stage timings and refine answers, and
// from the change in its cache counters (those /v1/metrics exports) over
// the measured phase. Shares divide
// by the summed client latency of the successful requests; queue, run
// and overhead (HTTP, JSON and polling) add up to 1, and the pipeline
// stages are part of run. Counts are per successful request.
func serveLayerValues(v map[string]float64, recs []reqRecord, before, after cacheCounts, scale float64) {
	var latSum, queue, run, polls, refineMS float64
	var epochs, iters, trusted, refined, refineIters, mncBefore, mncAfter float64
	var stage server.StageMS
	var http429, http5xx float64
	var lat []float64
	for _, r := range recs {
		switch {
		case r.status == http.StatusTooManyRequests:
			http429++
		case r.status >= 500:
			http5xx++
		}
		if r.problem != "" {
			continue
		}
		lat = append(lat, ms(r.latency))
		latSum += ms(r.latency)
		queue += ms(r.queue)
		run += ms(r.run)
		polls += float64(r.polls)
		for _, res := range r.runs {
			s := res.TimingsMS
			stage.OrbitCounting += s.OrbitCounting
			stage.Laplacians += s.Laplacians
			stage.Training += s.Training
			stage.FineTuning += s.FineTuning
			stage.Integration += s.Integration
			stage.Total += s.Total
			stage.LaplaciansBytes += s.LaplaciansBytes
			stage.TrainingBytes += s.TrainingBytes
			stage.FineTuningBytes += s.FineTuningBytes
			epochs += float64(res.EpochsTrained)
			for _, o := range res.PerOrbit {
				iters += float64(o.Iters)
				trusted += float64(o.Trusted)
			}
		}
		if rr := r.refined; rr != nil {
			refined++
			refineMS += rr.RefineMS
			refineIters += float64(rr.Iters)
			mncBefore += rr.MNC[0]
			mncAfter += rr.MNC[len(rr.MNC)-1]
		}
	}
	n := float64(len(lat))
	share := func(x float64) float64 { return x / latSum }
	mb := func(b uint64) float64 { return float64(b) / n / 1e6 }
	ratio := func(h, m int64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	// The server folds a freshly built pair's orbit and Laplacian time
	// into the stage fields but not into Total, which covers the align
	// call alone; so the core's own time is Total minus the stages run
	// inside that call.
	inAlign := stage.Training + stage.FineTuning + stage.Integration
	v["trace.op_ms"] = median(lat) * scale
	v["server.queue_share"] = share(queue)
	v["server.run_share"] = share(run)
	v["server.overhead_share"] = share(latSum - queue - run)
	v["server.polls_per_req"] = polls / n
	v["server.result_hit_ratio"] = ratio(after.hits-before.hits, after.misses-before.misses)
	v["server.prepared_hit_ratio"] = ratio(after.prepHits-before.prepHits, after.prepMisses-before.prepMisses)
	v["server.http_429"] = http429
	v["server.http_5xx"] = http5xx
	v["core.self_share"] = share(stage.Total - inAlign)
	v["orbit.count_share"] = share(stage.OrbitCounting)
	v["gom.build_share"] = share(stage.Laplacians)
	v["gom.alloc_mb"] = mb(stage.LaplaciansBytes)
	v["nn.train_share"] = share(stage.Training)
	v["nn.alloc_mb"] = mb(stage.TrainingBytes)
	v["nn.epochs"] = epochs / n
	v["nn.epoch_ms"] = stage.Training / epochs * scale
	v["align.finetune_share"] = share(stage.FineTuning)
	v["align.finetune_alloc_mb"] = mb(stage.FineTuningBytes)
	v["align.finetune_iters"] = iters / n
	v["align.trusted_pairs"] = trusted / n
	v["align.integrate_share"] = share(stage.Integration)
	v["refine.refine_share"] = share(refineMS)
	v["refine.iters"] = refineIters / n
	if refined > 0 {
		v["refine.mnc_before"] = mncBefore / refined
		v["refine.mnc_after"] = mncAfter / refined
	} else {
		v["refine.mnc_before"], v["refine.mnc_after"] = 0, 0
	}
	// Layers the server path does not expose separately: its matching
	// and evaluation run inside the job after the stage timings close,
	// refine allocations are not reported, and the upload was ingested
	// during set-up.
	for _, name := range []string{"align.match_share", "metrics.eval_share", "refine.alloc_mb", "ingest.load_share", "ingest.alloc_mb",
		"ann.pool_rows_mean", "ann.queries", "ann.refit_reuse", "ann.rows_hashed"} {
		v[name] = 0
	}
}
