#!/bin/sh
# Non-test Go line counts: `wc -l` over the tracked non-test .go files
# of each package directory, then the total.
#
#   scripts/loc.sh                       # every package of the repository
#   scripts/loc.sh internal/msd cmd/msd  # the packages under these paths
#
# Each line is "<lines> <package dir>" (the root package is "."); the
# last line is the total. Only files git tracks are counted.
set -eu

cd "$(dirname "$0")/.."

git ls-files -- "${@:-.}" | grep '\.go$' | grep -v '_test\.go$' |
	while read -r f; do
		printf '%s %s\n' "$(wc -l < "$f")" "$(dirname "$f")"
	done |
	awk '{ n[$2] += $1; total += $1 }
		END {
			for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%7d total\n", total
		}'
