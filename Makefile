# Local targets mirror .github/workflows/ci.yml: `make ci` runs CI's
# steps in CI's order. The one deliberate difference is `bench-gate`,
# which also runs the minutes-long BenchmarkAlignAnnIngested100K series
# that CI's pipeline-benchmark step leaves out.

GO ?= go

# How long `make fuzz` spends on each fuzz target, and the targets as
# package:Target pairs under internal/.
FUZZTIME ?= 10s
FUZZ_TARGETS = ingest:FuzzEdgeList ingest:FuzzAdjList ingest:FuzzJSON ingest:FuzzHTCGraph \
	ingest:FuzzSniff ingest:FuzzTruth server:FuzzAlignAdmission server:FuzzDatasetPut

.PHONY: build test test-ann test-refine test-kernels test-bench lint bench bench-pipeline bench-io bench-gate fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The ANN index is the one subsystem with lock-free per-worker counters
# merged across goroutines; run its suite explicitly under the race
# detector (also covered by `test`, but kept addressable on its own so
# index changes get a fast, targeted gate). The index's exact path is
# the blocked scan the `topk` backend runs, and that scan's bit-exact
# tests live in this suite, so the target gates the `topk` backend too.
# TestRerankBitIdenticalToReference holds the hashed path's four-row
# re-rank to the one-term loop's bits on both precision tiers (the f32
# tier rounds each of those scores to float32), TestRehashPinnedBits
# pins the walk through re-hashed buckets, and
# TestHashedFullGatherMatchesBruteForce drives the one multi-probe
# walker, on both levels and both tiers, through every row at k = n.
test-ann:
	$(GO) test -race -count=1 ./internal/ann/...

# The RefiNA refinement stage shares per-worker scratch across
# goroutines and must stay worker-count independent; run its suite
# explicitly under the race detector, uncached, so refinement changes
# get the same targeted gate the ANN index has.
# TestRowSumBitIdenticalToSort holds the dense path's radix-ordered row
# sum to the bits of a comparison sort.
test-refine:
	$(GO) test -race -count=1 ./internal/refine/...

# The dense and sparse product kernels apply four multiply-adds per pass
# over the output yet must round exactly as one-term loops do, and every
# pipeline stage relies on that for bit-identical results at any worker
# count. The top-k selector's tie rule (a larger score first, equal
# scores to the lower index) keeps the candidate generators and RefiNA's
# token choice in step. Run their bit-exact suites, the selector's and
# the encoder's under the race detector, uncached.
test-kernels:
	$(GO) test -race -count=1 ./internal/dense/... ./internal/sparse/... ./internal/topk/... ./internal/nn/...

# The benchmark program under bench/ is its own module (so root `./...`
# patterns skip it), yet it compiles against internal/server and
# internal/core; vet and race-test it explicitly so an API change there
# cannot silently break the benchmark.
test-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# Static analysis at full strength: gofmt, the whole stock vet suite
# plus an explicit, addressable copylocks pass, a tidy-module check, and
# htc-lint — the project-specific analyzers under internal/analysis
# (paramflow, detrange, knobcover, metricdiscipline). x/tools' shadow
# and nilness vet passes cannot be fetched in the offline build, so
# htc-lint ships native implementations of both; `go tool vet help`
# lists neither because they were never in the stock distribution.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "these files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -copylocks ./...
	$(GO) mod tidy -diff
	$(GO) run ./cmd/htc-lint ./...

# One iteration of every benchmark — a smoke run proving the bench
# harness works, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Refresh the end-to-end pipeline baseline (BenchmarkAlign per variant,
# workers=1 vs workers=max, the staged-API prepare-reuse sweep, the
# large-pair top-k memory benchmark, the 100k-node ingested-graph ANN
# scale proof, the skew-adversarial ANN pool benchmark, and the RefiNA
# refinement stage — dense 1k and candidate-list 100k series).
bench-pipeline:
	./scripts/bench_snapshot.sh BENCH_pipeline.json ./internal/core/ 'BenchmarkAlign$$|BenchmarkPrepareReuse$$|BenchmarkAlignTopKLarge$$|BenchmarkAlignAnnIngested100K$$|BenchmarkAnnSkewAdversarial$$|BenchmarkRefine$$'

# Refresh the ingestion baseline: the 1M-edge edge-list parse and the
# 100k-anchor ID-keyed truth resolution.
bench-io:
	./scripts/bench_snapshot.sh BENCH_io.json ./internal/ingest/ 'BenchmarkEdgeList1M$$|BenchmarkTruth100K$$'

# The CI regression gate: re-measure and compare against the checked-in
# pipeline and ingestion baselines, failing on a >2x time regression or a
# >1.5x regression of any other series both snapshots carry (allocated
# bytes, allocation count, fine-tune bytes, ANN pool rows).
bench-gate:
	./scripts/bench_snapshot.sh BENCH_pipeline.ci.json ./internal/core/ 'BenchmarkAlign$$|BenchmarkPrepareReuse$$|BenchmarkAlignTopKLarge$$|BenchmarkAlignAnnIngested100K$$|BenchmarkAnnSkewAdversarial$$|BenchmarkRefine$$'
	./scripts/bench_check.sh BENCH_pipeline.json BENCH_pipeline.ci.json 2.0 1.5
	./scripts/bench_snapshot.sh BENCH_io.ci.json ./internal/ingest/ 'BenchmarkEdgeList1M$$|BenchmarkTruth100K$$'
	./scripts/bench_check.sh BENCH_io.json BENCH_io.ci.json 2.0 1.5

# Short fuzz smoke over every registered format reader, the sniffer, the
# truth parser, the server's align/sweep admission path and its dataset
# upload endpoint (go test -fuzz accepts one target in one package at a
# time).
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*} name=$${t#*:}; \
		echo "== fuzz $$name in internal/$$pkg ($(FUZZTIME)) =="; \
		$(GO) test ./internal/$$pkg/ -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

ci: lint build test test-ann test-refine test-kernels test-bench bench fuzz bench-gate
