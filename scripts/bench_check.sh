#!/usr/bin/env sh
# Compare a fresh benchmark snapshot against a checked-in baseline and fail
# when any shared series regressed beyond its allowed factor.
#
# Usage: scripts/bench_check.sh baseline.json fresh.json [time-factor] [series-factor]
#
# Benchmarks are matched by name and series by key: every "*_per_op" key
# that both snapshots carry for a benchmark is compared, and anything
# present in only one file is ignored (new benchmarks and new series don't
# fail the gate). ns_per_op is held to the time factor, default 2 and
# deliberately loose: snapshots are single-iteration smoke timings, and the
# gate exists to catch order-of-magnitude mistakes (an accidentally serial
# kernel, a reintroduced dense path), not percent-level noise. Every other
# series is deterministic-ish and held to the series factor, default 1.5:
# a dense ns×nt matrix sneaking back into the top-k path multiplies B/op
# (bytes_per_op, and finetune_bytes_per_op for the fine-tune stage alone)
# far beyond it, a per-row instead of per-block scratch allocation
# multiplies allocs/op, and a balanced ANN hash degrading to skewed
# buckets multiplies pool_rows_per_op (the mean rows re-ranked per query)
# long before wall-clock noise would catch it. Two extra gates compare
# series within the fresh snapshot itself: the f32 tier of the 100K
# ingestion benchmark must allocate ≤ 0.97× of its f64 twin in the
# fine-tune stage (the span the precision tier owns) and never more
# than it overall.
set -eu

baseline=$1
fresh=$2
factor=${3:-2.0}
series_factor=${4:-1.5}

# Extract one "name key value" line per *_per_op series from the snapshot
# JSON (one benchmark per line, as produced by bench_snapshot.sh). The
# -GOMAXPROCS suffix Go appends on multi-core hosts is stripped again
# here, so snapshots taken before that normalisation (or hand-edited)
# still match by name.
extract() {
	tr ',' '\n' < "$1" | awk '
		/"name"/ { gsub(/.*"name": "|"/, ""); sub(/-[0-9]+$/, ""); name = $0; next }
		name != "" && /"[a-z0-9_]+_per_op":/ {
			key = $0; sub(/^[^"]*"/, "", key); sub(/".*/, "", key)
			val = $0; sub(/.*: */, "", val); sub(/[]} ].*/, "", val)
			print name, key, val
		}'
}

base=$(mktemp)
new=$(mktemp)
trap 'rm -f "$base" "$new"' EXIT
extract "$baseline" | sort > "$base"
extract "$fresh" | sort > "$new"

fail=0
awk -v tf="$factor" -v sf="$series_factor" '
	NR == FNR { fresh[$1, $2] = $3; next }
	($1, $2) in fresh {
		f = ($2 == "ns_per_op") ? tf : sf
		n = fresh[$1, $2]
		compared++
		if (n + 0 > $3 * f) {
			printf "REGRESSION: %s %s %s -> %s (allowed factor %s)\n", $1, $2, $3, n, f > "/dev/stderr"
			bad = 1
		} else {
			printf "ok: %s %s %s -> %s\n", $1, $2, $3, n
		}
	}
	END {
		# A gate that compared nothing protects nothing — treat it as a
		# failure (renamed benchmarks must update the checked-in baseline
		# alongside).
		if (compared == 0) {
			print "ERROR: no benchmarks in common between the two snapshots" > "/dev/stderr"
			bad = 1
		}
		exit bad
	}' "$new" "$base" || fail=1

# Precision-tier gates: the float32 tier of the 100K ingestion benchmark
# must deliver its memory win against the f64 series of the SAME fresh
# snapshot (host and toolchain drift cancel out in a same-snapshot
# ratio); they fire only when the snapshot carries both tiers (baselines
# predating the split lack them). Wall-clock is NOT gated across tiers —
# at this workload's embedding width the f32 kernels trade halved
# streaming bandwidth against widening conversions and the measured
# ratio swings either way with host load. The allocation series are
# deterministic, so they are: the fine-tune stage (the span the
# precision tier owns, measured by the pipeline's per-stage TotalAlloc
# deltas) must allocate ≤ 0.97× of the f64 series — the half-width
# embedding copies are a real, fixed saving under the
# precision-independent candidate-list bulk — and the whole-benchmark
# bytes may never exceed f64 at all: a widening copy sneaking into the
# f32 path shows up there first.
series() { awk -v n="BenchmarkAlignAnnIngested100K/$1" -v k="$2" '$1 == n && $2 == k { print $3 }' "$new"; }
f64ft=$(series f64 finetune_bytes_per_op)
f32ft=$(series f32 finetune_bytes_per_op)
if [ -n "$f64ft" ] && [ -n "$f32ft" ]; then
	worse=$(awk -v b="$f64ft" -v n="$f32ft" 'BEGIN { print (n > b * 0.97) ? 1 : 0 }')
	if [ "$worse" = 1 ]; then
		echo "REGRESSION: AlignAnnIngested100K/f32 fine-tune ${f32ft}B not <= 0.97x the f64 series (${f64ft}B)" >&2
		fail=1
	else
		echo "ok: AlignAnnIngested100K/f32 fine-tune ${f32ft}B <= 0.97x f64 (${f64ft}B)"
	fi
fi
f64bytes=$(series f64 bytes_per_op)
f32bytes=$(series f32 bytes_per_op)
if [ -n "$f64bytes" ] && [ -n "$f32bytes" ]; then
	worse=$(awk -v b="$f64bytes" -v n="$f32bytes" 'BEGIN { print (n > b) ? 1 : 0 }')
	if [ "$worse" = 1 ]; then
		echo "REGRESSION: AlignAnnIngested100K/f32 ${f32bytes}B/op exceeds the f64 series (${f64bytes}B/op)" >&2
		fail=1
	else
		echo "ok: AlignAnnIngested100K/f32 ${f32bytes}B/op <= f64 (${f64bytes}B/op)"
	fi
fi
exit $fail
