package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestVariantTextRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		text, err := v.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back Variant
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if back != v {
			t.Errorf("round trip %v → %q → %v", v, text, back)
		}
	}
	if _, err := Variant(99).MarshalText(); err == nil {
		t.Error("marshalling an unknown variant should fail")
	}
}

func TestParseVariant(t *testing.T) {
	cases := map[string]Variant{
		"HTC": Full, "htc": Full, "": Full, "full": Full,
		"HTC-L": LowOrder, "l": LowOrder,
		"htc-h":  HighOrder,
		"HTC-LT": LowOrderFT, " lt ": LowOrderFT,
		"htc-dt": DiffusionFT, "DT": DiffusionFT,
	}
	for in, want := range cases {
		got, err := ParseVariant(in)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseVariant("HTC-XL"); err == nil {
		t.Error("ParseVariant should reject unknown names")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Config{
		Variant: DiffusionFT, K: 5, Hidden: 32, Embed: 16, Layers: 3,
		Epochs: 10, Patience: 3, LR: 0.02, M: 7, Beta: 1.2, Binary: true,
		MaxFineTuneIters: 9, DiffusionAlpha: 0.3, Seed: 42, Workers: 4,
		Seeds: [][2]int{{0, 1}, {2, 3}},
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"variant":"HTC-DT"`) {
		t.Errorf("variant should marshal by paper name, got %s", blob)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", cfg, back)
	}
}

// TestConfigJSONIgnoresObservers pins that the progress observer — a
// function value — stays out of the wire format: a Config carrying one
// still marshals (the server hashes configs with encoding/json, which
// would otherwise fail on a func field), emits no "progress" key, and
// the callback is irrelevant to equality of the serialisable fields.
func TestConfigJSONIgnoresObservers(t *testing.T) {
	cfg := Config{Epochs: 5, Seed: 9, Progress: func(Progress) {}}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshalling a Config with a Progress observer: %v", err)
	}
	if strings.Contains(string(blob), "progress") {
		t.Errorf("progress observer leaked into JSON: %s", blob)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	cfg.Progress = nil
	if !reflect.DeepEqual(cfg, back) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", cfg, back)
	}
}

func TestConfigJSONDefaults(t *testing.T) {
	// An empty body selects the paper's defaults, and unknown variants
	// are rejected at decode time.
	var cfg Config
	if err := json.Unmarshal([]byte(`{}`), &cfg); err != nil {
		t.Fatal(err)
	}
	def := cfg.WithDefaults()
	if def.Epochs != 60 || def.Hidden != 128 || def.K != 13 {
		t.Errorf("unexpected defaults: %+v", def)
	}
	if err := json.Unmarshal([]byte(`{"variant":"HTC-XXL"}`), &cfg); err == nil {
		t.Error("decoding an unknown variant should fail")
	}
}

func TestAlignContextCancelled(t *testing.T) {
	gs, gt, _ := noisyPair(40, 0.1, 3)
	p, err := Prepare(gs, gt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AlignContext(ctx, quickConfig(Full)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	// Cancel mid-training (via the epoch callback path: cancel after a
	// short delay while the pipeline is running) and require a prompt,
	// clean abort.
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	cfg := quickConfig(Full)
	cfg.Epochs = 100000 // would run for minutes without cancellation
	start := time.Now()
	_, err = p.AlignContext(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run cancel: got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}
