#!/usr/bin/env bash
# Compare the code layout of the benchmark binary between a revision and
# the working tree. bench/run.sh scales every time by refKernel, whose
# speed depends on where the linker puts it, so two builds only compare
# when main.refKernel.func1 keeps its offset within a 64-byte line.
#
# Usage: scripts/bench_layout.sh <rev>
#
# Prints the kernel's address and offset mod 64 in both builds, then, per
# internal/ package linked into the benchmark, whether its text symbols
# kept their addresses, else how far they moved and whether every shift
# is ≡ 0 mod 64 (a hot loop moved by 0x20 changed its cache-line offset).
# Exits 1 when the kernel's offsets differ.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <rev>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'chmod -R u+w "$tmp"; rm -rf "$tmp"' EXIT
mkdir -p "$tmp/a" "$tmp/b" "$tmp/tmp"
git -C "$root" archive "$1" | tar -x -C "$tmp/a"
# The worktree as it stands: tracked and untracked files, less tracked
# files deleted from the worktree, which ls-files still lists.
(cd "$root" && git ls-files -co --exclude-standard | while IFS= read -r f; do
	if [ -e "$f" ]; then printf '%s\n' "$f"; fi
done) | tar -C "$root" -c -T - | tar -x -C "$tmp/b"

# The environment bench/run.sh builds with.
export GOCACHE="$tmp/gocache" GOPATH="$tmp/gopath" GOTMPDIR="$tmp/tmp" XDG_CONFIG_HOME="$tmp/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
p=github.com/htc-align/htc/internal/
for s in a b; do
	go -C "$tmp/$s/bench" build -o "$tmp/$s.bin" .
	go tool nm -n "$tmp/$s.bin" > "$tmp/$s.nm"
	awk -v p="$p" '($2 == "T" || $2 == "t") && index($3, p) == 1 {
		pkg = substr($3, length(p) + 1); sub(/[.\/].*/, "", pkg); print pkg, $1, $3 }' "$tmp/$s.nm" > "$tmp/$s.pkg"
done

off() { awk '$3 == "main.refKernel.func1" { print $1 }' "$tmp/$1.nm"; }
ka=$(off a) kb=$(off b)
printf '%-10s main.refKernel.func1 at 0x%s, offset 0x%02x\n' "$1" "$ka" $((0x$ka % 64)) "worktree" "$kb" $((0x$kb % 64))
for pkg in $(cut -d' ' -f1 "$tmp/a.pkg" "$tmp/b.pkg" | sort -u); do
	if cmp -s <(grep "^$pkg " "$tmp/a.pkg") <(grep "^$pkg " "$tmp/b.pkg"); then
		echo "$pkg: identical addresses"
		continue
	fi
	# Shifts (worktree − parent) of the symbols both carry, in parent order.
	awk -v p="$pkg" 'function hex(s, v, i) { for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return v }
		function fmt(d) { return sprintf("%s0x%x", d < 0 ? "-" : "+", d < 0 ? -d : d) }
		$1 != p { next }
		FILENAME == ARGV[1] { w[$3] = hex($2); next }
		$3 in w { d[++n] = w[$3] - hex($2); if (d[n] % 64) odd = 1; if (d[n] != d[1]) mixed = 1 }
		END { if (!n) { print p ": moved, no symbol in common"; exit }
			if (!mixed) print p ": moved by " fmt(d[1]) ", " (odd ? "≢" : "≡") " 0 mod 64"
			else print p ": moved " fmt(d[1]) " first, " fmt(d[n]) " last, " (odd ? "not every" : "every") " shift ≡ 0 mod 64" }' "$tmp/b.pkg" "$tmp/a.pkg"
done
[ $((0x$ka % 64)) -eq $((0x$kb % 64)) ]
