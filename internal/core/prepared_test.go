package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/htc-align/htc/internal/graph"
)

// sweepVariants is the Table-III style roster the staged API exists for:
// every pipeline variant plus the binary-GOM ablation, all over one pair.
func sweepVariants() []Config {
	var cfgs []Config
	for _, v := range Variants() {
		cfgs = append(cfgs, quickConfig(v))
	}
	binary := quickConfig(Full)
	binary.Binary = true
	cfgs = append(cfgs, binary)
	return cfgs
}

// TestPreparedAlignEquivalence is the staged API's core contract: for
// every variant, Prepare + Prepared.Align must be bit-identical to the
// one-shot Align — same alignment matrix, same per-orbit outcomes, same
// loss history.
func TestPreparedAlignEquivalence(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 5)
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sweepVariants() {
		name := cfg.Variant.String()
		if cfg.Binary {
			name += "-B"
		}
		t.Run(name, func(t *testing.T) {
			oneShot, err := Align(gs, gt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := p.Align(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oneShot.Sim.Dense().Data, staged.Sim.Dense().Data) {
				t.Error("alignment matrices differ between one-shot and staged runs")
			}
			if !reflect.DeepEqual(oneShot.PerOrbit, staged.PerOrbit) {
				t.Errorf("per-orbit outcomes differ:\n one-shot %+v\n staged   %+v", oneShot.PerOrbit, staged.PerOrbit)
			}
			if !reflect.DeepEqual(oneShot.LossHistory, staged.LossHistory) {
				t.Error("loss histories differ between one-shot and staged runs")
			}
		})
	}
}

// TestPreparedArtifactReuse proves the sweep path skips stages 1–2: one
// Prepared absorbs a whole variant sweep with a single orbit-counting
// pass and one artifact build per distinct aggregation family.
func TestPreparedArtifactReuse(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 6)
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.OrbitCountRuns != 0 || s.SetBuilds != 0 {
		t.Fatalf("after Prepare: %+v, want no count run and no set build", s)
	}
	for _, cfg := range sweepVariants() {
		if _, err := p.Align(cfg); err != nil {
			t.Fatalf("%v: %v", cfg.Variant, err)
		}
	}
	// Distinct artifact sets: orbits(K=5), orbits(K=5,binary),
	// diffusion(5), low-order — HighOrder shares Full's set, LowOrderFT
	// shares LowOrder's, and no config recounts orbits.
	s := p.Stats()
	if s.OrbitCountRuns != 1 {
		t.Errorf("orbit counting ran %d times across the sweep, want exactly 1", s.OrbitCountRuns)
	}
	if s.SetBuilds != 4 || s.Sets != 4 {
		t.Errorf("artifact sets: %+v, want 4 builds / 4 memoised", s)
	}
	// A second full sweep builds nothing at all.
	for _, cfg := range sweepVariants() {
		if _, err := p.Align(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if s2 := p.Stats(); s2 != s {
		t.Errorf("repeat sweep rebuilt artifacts: %+v -> %+v", s, s2)
	}
}

// TestPreparedConcurrentAligns runs the whole sweep concurrently over one
// Prepared (the server's artifact-sharing scenario) and requires every
// result to match its serial counterpart. Run under -race in CI.
func TestPreparedConcurrentAligns(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 7)
	p, err := Prepare(gs, gt) // nothing built yet: the concurrent first users race for every family
	if err != nil {
		t.Fatal(err)
	}
	cfgs := sweepVariants()
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = Align(gs, gt, cfg); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Result, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			r, err := p.Align(cfg)
			if err != nil {
				t.Errorf("concurrent align %d: %v", i, err)
				return
			}
			got[i] = r
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		if got[i] == nil {
			continue
		}
		if !reflect.DeepEqual(want[i].Sim.Dense().Data, got[i].Sim.Dense().Data) {
			t.Errorf("config %d: concurrent staged result differs from serial one-shot", i)
		}
	}
	if s := p.Stats(); s.OrbitCountRuns != 1 {
		t.Errorf("concurrent sweep counted orbits %d times, want 1", s.OrbitCountRuns)
	}
}

// TestPreparedSetEviction bounds per-pair artifact accretion: a stream
// of distinct aggregation families (client-controllable via diffusion α)
// must not grow the memo without limit, and evicted families must simply
// rebuild on demand with unchanged results.
func TestPreparedSetEviction(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 11)
	cfg := quickConfig(DiffusionFT)
	cfg.Epochs = 2
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Align(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxMemoisedSets+4; i++ {
		c := cfg
		c.DiffusionAlpha = 0.10 + float64(i+1)*0.01
		if _, err := p.Align(c); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Sets > maxMemoisedSets {
		t.Errorf("memoised %d artifact sets, cap is %d", s.Sets, maxMemoisedSets)
	}
	// The original family was evicted long ago; re-aligning rebuilds it
	// with identical results.
	again, err := p.Align(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Sim.Dense().Data, again.Sim.Dense().Data) {
		t.Error("post-eviction rebuild changed the result")
	}
}

// TestPairHash pins the content-hash contract: identical pairs collide,
// any structural or attribute change separates.
func TestPairHash(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 8)
	h := PairHash(gs, gt)
	if h == "" || h != PairHash(gs, gt) {
		t.Fatal("PairHash must be deterministic and non-empty")
	}
	if PairHash(gt, gs) == h {
		t.Error("swapping source and target should change the hash")
	}

	// Rebuild gs identically: equal content, equal hash.
	b := graph.NewBuilder(gs.N())
	for _, e := range gs.Edges() {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	clone := b.Build().WithAttrs(gs.Attrs().Clone())
	if PairHash(clone, gt) != h {
		t.Error("structurally identical pair should hash equally")
	}

	// One extra edge changes it.
	b2 := graph.NewBuilder(gs.N() + 1)
	for _, e := range gs.Edges() {
		b2.AddEdge(int(e[0]), int(e[1]))
	}
	b2.AddEdge(0, gs.N())
	if PairHash(b2.Build(), gt) == h {
		t.Error("different graphs should hash differently")
	}

	// One attribute bit changes it.
	x := gs.Attrs().Clone()
	x.Data[0] += 1e-12
	if PairHash(clone.WithAttrs(x), gt) == h {
		t.Error("attribute changes should change the hash")
	}

	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash() != h {
		t.Error("Prepared.Hash should equal PairHash of its inputs")
	}
}

// TestProgressObserver checks the observation contract: stages arrive in
// pipeline order, training reports every epoch, fine-tuning covers every
// orbit, and a staged re-run over warm artifacts skips the build stages.
func TestProgressObserver(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 9)
	var mu sync.Mutex
	var events []Progress
	cfg := quickConfig(Full)
	cfg.Progress = func(ev Progress) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var stageOrder []string
	perStage := map[string]int{}
	for _, ev := range events {
		if len(stageOrder) == 0 || stageOrder[len(stageOrder)-1] != ev.Stage {
			stageOrder = append(stageOrder, ev.Stage)
		}
		perStage[ev.Stage]++
	}
	// Fine-tune events interleave across orbit goroutines but all carry
	// the same stage, so the first-occurrence order is deterministic.
	want := []string{StageOrbitCounts, StageLaplacians, StageTrain, StageFineTune, StageIntegrate}
	if !reflect.DeepEqual(stageOrder, want) {
		t.Errorf("stage order %v, want %v", stageOrder, want)
	}
	if perStage[StageTrain] != len(res.LossHistory) {
		t.Errorf("train events %d, want one per epoch (%d)", perStage[StageTrain], len(res.LossHistory))
	}
	orbitsDone := map[int]bool{}
	for _, ev := range events {
		if ev.Stage == StageFineTune {
			orbitsDone[ev.Orbit] = true
		}
	}
	if len(orbitsDone) != len(res.PerOrbit) {
		t.Errorf("fine-tune events cover %d orbits, want %d", len(orbitsDone), len(res.PerOrbit))
	}
	last := events[len(events)-1]
	if last.Stage != StageIntegrate || last.Done != 1 {
		t.Errorf("final event %+v, want integrate done", last)
	}

	// Warm re-run on a Prepared: no build-stage events.
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Align(quickConfig(Full)); err != nil {
		t.Fatal(err)
	}
	events = nil
	warm := quickConfig(Full)
	warm.Progress = cfg.Progress
	if _, err := p.Align(warm); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Stage == StageOrbitCounts || ev.Stage == StageLaplacians {
			t.Errorf("warm staged run emitted build event %+v", ev)
		}
	}
}

// TestPreparedAlignCancelled mirrors the one-shot cancellation contract
// on the staged path.
func TestPreparedAlignCancelled(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 3)
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AlignContext(ctx, quickConfig(Full)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled staged align: got %v, want context.Canceled", err)
	}
}
