package core

import (
	"testing"
)

// TestAlignWorkersEquivalence is the contract behind Config.Workers: the
// parallel execution engine must be a pure performance knob. For every
// variant, a run with Workers=1 and runs with several fan-out budgets must
// produce bit-identical alignment matrices, per-orbit outcomes and loss
// histories on the same seed. Run under -race this also exercises every
// parallel stage for data races.
func TestAlignWorkersEquivalence(t *testing.T) {
	gs, gt, _ := noisyPair(30, 0.1, 99)
	for _, v := range []Variant{Full, LowOrder, HighOrder, LowOrderFT, DiffusionFT} {
		cfg := quickConfig(v)
		cfg.Epochs = 12
		cfg.Workers = 1
		serial, err := Align(gs, gt, cfg)
		if err != nil {
			t.Fatalf("%v serial: %v", v, err)
		}
		for _, w := range []int{2, 4, 0} {
			cfg.Workers = w
			parallel, err := Align(gs, gt, cfg)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", v, w, err)
			}
			if !parallel.Sim.Dense().Equal(serial.Sim.Dense(), 0) {
				t.Fatalf("%v workers=%d: alignment matrix diverged from serial run", v, w)
			}
			if len(parallel.PerOrbit) != len(serial.PerOrbit) {
				t.Fatalf("%v workers=%d: %d orbits vs %d", v, w, len(parallel.PerOrbit), len(serial.PerOrbit))
			}
			for i := range serial.PerOrbit {
				if parallel.PerOrbit[i] != serial.PerOrbit[i] {
					t.Fatalf("%v workers=%d: orbit %d outcome %+v vs %+v",
						v, w, i, parallel.PerOrbit[i], serial.PerOrbit[i])
				}
			}
			if len(parallel.LossHistory) != len(serial.LossHistory) {
				t.Fatalf("%v workers=%d: loss history length %d vs %d",
					v, w, len(parallel.LossHistory), len(serial.LossHistory))
			}
			for i := range serial.LossHistory {
				if parallel.LossHistory[i] != serial.LossHistory[i] {
					t.Fatalf("%v workers=%d: loss[%d] = %v vs %v",
						v, w, i, parallel.LossHistory[i], serial.LossHistory[i])
				}
			}
		}
	}
}

// TestAlignWorkersEquivalenceKeepEmbeddings covers the embedding snapshot
// path, whose buffers are the ones most at risk of aliasing bugs under
// concurrent fine-tuning.
func TestAlignWorkersEquivalenceKeepEmbeddings(t *testing.T) {
	gs, gt, _ := noisyPair(24, 0.1, 100)
	cfg := quickConfig(Full)
	cfg.Epochs = 10
	cfg.KeepEmbeddings = true
	cfg.Workers = 1
	serial, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.SourceEmbeddings {
		if !parallel.SourceEmbeddings[i].Equal(serial.SourceEmbeddings[i], 0) ||
			!parallel.TargetEmbeddings[i].Equal(serial.TargetEmbeddings[i], 0) {
			t.Fatalf("orbit %d embeddings diverged between worker counts", i)
		}
	}
}

// TestResultReportsWorkers pins the effective-budget reporting the server
// relies on.
func TestResultReportsWorkers(t *testing.T) {
	gs, gt, _ := noisyPair(20, 0.1, 101)
	cfg := quickConfig(LowOrder)
	cfg.Epochs = 4
	cfg.Workers = 3
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 3 {
		t.Fatalf("Result.Workers = %d, want 3", res.Workers)
	}
}
