package htc_test

// The root benchmark harness regenerates every table and figure of the
// paper's evaluation section (the artefacts of `htc-experiments -run all`).
// Each benchmark runs the corresponding experiment driver at a reduced
// scale so a full `go test -bench=. -benchmem` pass stays laptop-sized;
// `htc-experiments -scale 1` runs the full-scale reference. Rendered rows
// are emitted through b.Logf on the first iteration (visible with -v), so
// the harness prints the same rows/series the paper reports.

import (
	"testing"

	"github.com/htc-align/htc/internal/experiments"
)

// benchOptions is the reduced scale used by the benchmark harness.
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 0.15, Seed: 1, Epochs: 12}
}

func BenchmarkTable1Stats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text := experiments.Table1(benchOptions())
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkTable2Overall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkTable3Ablation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Table3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig6OrbitImportance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig7Runtime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, _, err := experiments.Table2(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		text := experiments.Fig7(cells)
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig8Decomposition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig9Robustness(b *testing.B) {
	b.ReportAllocs()
	opts := benchOptions()
	opts.Scale = 0.06 // 70 method runs; keep each dataset tiny
	opts.Epochs = 8
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig9(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig9AdditiveRobustness(b *testing.B) {
	b.ReportAllocs()
	opts := benchOptions()
	opts.Scale = 0.06
	opts.Epochs = 8
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig9Additive(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig10Hyper(b *testing.B) {
	b.ReportAllocs()
	opts := benchOptions()
	opts.Epochs = 8
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig10(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}

func BenchmarkFig11TSNE(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, text, err := experiments.Fig11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", text)
		}
	}
}
