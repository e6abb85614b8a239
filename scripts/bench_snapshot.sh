#!/usr/bin/env sh
# Refresh a perf baseline: run a package's benchmarks once each and record
# them as JSON so future PRs have a trajectory to compare against.
#
# Usage: scripts/bench_snapshot.sh out.json package [bench-regex]
#
#   scripts/bench_snapshot.sh BENCH_pipeline.json ./internal/core/ 'BenchmarkAlign$'
#
# The snapshot records the host's CPU count: the workers=1 vs workers=max
# series of the pipeline benchmarks only diverge on multi-core hosts.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 out.json package [bench-regex]" >&2
	exit 2
fi
out=$1
pkg=$2
regex=${3:-.}

cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# Run the benchmarks to a file first: in a `go test | awk` pipeline a
# test failure would be masked by awk's exit status and produce an empty
# (vacuously passing) snapshot.
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
go test -bench "$regex" -benchtime=1x -run='^$' "$pkg" > "$raw"

awk \
	-v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v goversion="$(go env GOVERSION)" \
	-v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" \
	-v pkg="$pkg" -v cpus="$cpus" '
BEGIN {
	print "{"
	printf "  \"generated_at\": \"%s\",\n", date
	printf "  \"go\": \"%s\", \"goos\": \"%s\", \"goarch\": \"%s\", \"cpus\": %s,\n", goversion, goos, goarch, cpus
	printf "  \"package\": \"%s\",\n", pkg
	print  "  \"benchtime\": \"1x\","
	print  "  \"benchmarks\": ["
	n = 0
}
/^Benchmark/ {
	# Strip the -GOMAXPROCS suffix Go appends on multi-core hosts
	# (benchstat does the same), so names compare across machines.
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
	# Benchmarks that ReportAllocs also print "X B/op  Y allocs/op";
	# record both so the gate can catch allocated-bytes regressions (a
	# reintroduced dense path shows up in memory before it shows up in
	# time).
	for (i = 4; i < NF; i++) {
		if ($(i+1) == "B/op")      printf ", \"bytes_per_op\": %s", $i
		if ($(i+1) == "allocs/op") printf ", \"allocs_per_op\": %s", $i
		# Custom ReportMetric series of the ANN benchmarks: mean re-rank
		# pool rows per query (the bucket-skew signal the gate watches).
		if ($(i+1) == "pool-rows/op") printf ", \"pool_rows_per_op\": %s", $i
		# Fine-tune stage allocated bytes (from the per-stage pipeline
		# decomposition): the span the float32 precision tier owns,
		# recorded per tier so the trajectory localises memory changes.
		if ($(i+1) == "finetune-bytes/op") printf ", \"finetune_bytes_per_op\": %s", $i
	}
	printf "}"
}
END {
	print "\n  ]"
	print "}"
}' "$raw" > "$out"

cat "$out"
