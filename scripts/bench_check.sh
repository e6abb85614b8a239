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
# long before wall-clock noise would catch it.
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

exit $fail
