#!/usr/bin/env bash
# Non-test Go lines per package, bench/ excluded — the number simplicity
# PRs report. Two columns: "code" skips blank and comment-only lines, so
# deleting (or writing) comments does not move it; "lines" is plain wc -l.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh <dir>      # another checkout, e.g. a clone of the parent
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -print0 |
	sort -z |
	xargs -0 awk '
		FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); inblock = 0 }
		{ lines[pkg]++ }
		inblock { if ($0 ~ /\*\//) inblock = 0; next }
		/^[ \t]*$/ || /^[ \t]*\/\// { next }
		/^[ \t]*\/\*/ { if ($0 !~ /\*\//) inblock = 1; next }
		{ code[pkg]++ }
		END {
			for (p in lines) printf "%-28s %7d %7d\n", p, code[p], lines[p] | "sort"
			close("sort")
			for (p in lines) { c += code[p]; l += lines[p] }
			printf "%-28s %7d %7d\n", "TOTAL", c, l
		}' |
	{ printf '%-28s %7s %7s\n' package code lines; cat; }
