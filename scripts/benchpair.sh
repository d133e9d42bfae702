#!/usr/bin/env bash
# Paired before/after run of one Go benchmark:
#
#   scripts/benchpair.sh <rev> <pkg> <bench> [pairs]
#   scripts/benchpair.sh HEAD ./internal/sim BenchmarkSimCatalogue 10
#
# Builds the package's test binary once from <rev> (exported with
# `git archive` into a directory under $TMPDIR) and once from the
# working tree, then runs the two binaries in pairs, alternating which
# one runs first, so drift on a shared host lands on both sides. It
# prints every pair, how many pairs the change won, and the median and
# interquartile range of the change/parent ratio. The metric is the
# benchmark's ns/cycle when it reports one, else ns/op; lower is better,
# so a ratio below 1 is a win. BENCHTIME (default 1x) is passed to
# -test.benchtime. Run it from anywhere inside the repository.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <rev> <pkg> <bench> [pairs]" >&2
	exit 2
fi
rev=$1 pkg=$2 bench=$3 pairs=${4:-10}
benchtime=${BENCHTIME:-1x}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$work/parent" && go test -c -o "$work/parent.test" "$pkg")
(cd "$root" && go test -c -o "$work/change.test" "$pkg")

# run <side> prints the side's metric for one benchmark run.
run() {
	local tree=$root
	[ "$1" = parent ] && tree=$work/parent
	(cd "$tree/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "^$bench\$" \
		-test.benchtime "$benchtime" -test.count 1) | awk '
		$1 ~ /^Benchmark/ {
			for (i = 3; i < NF; i++) {
				if ($(i+1) == "ns/cycle") cyc = $i
				if ($(i+1) == "ns/op") op = $i
			}
		}
		END { if (cyc != "") print cyc; else if (op != "") print op; else exit 1 }'
}

echo "pair parent change ratio"
ratios=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		p=$(run parent)
		c=$(run change)
	else
		c=$(run change)
		p=$(run parent)
	fi
	r=$(awk -v c="$c" -v p="$p" 'BEGIN { printf "%.4f", c / p }')
	ratios+=("$r")
	echo "$i $p $c $r"
done

printf '%s\n' "${ratios[@]}" | sort -g | awk '
	{ v[NR] = $1; if ($1 < 1) wins++ }
	function q(f,   h, lo) {
		h = 1 + (NR - 1) * f
		lo = int(h)
		return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo+1] - v[lo])
	}
	END {
		printf "wins %d/%d  median ratio %.4f  IQR %.4f (%.4f..%.4f)\n",
			wins, NR, q(0.5), q(0.75) - q(0.25), q(0.25), q(0.75)
	}'
