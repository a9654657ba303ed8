#!/usr/bin/env bash
# Fails if the compiler fuses a multiply-add anywhere in ./internal/... on
# an architecture that has fused instructions. Go's spec lets gc fuse
# x*y + z into one rounding unless an explicit float64(…) conversion
# stands between them; amd64 never fuses, so without this check a result
# (and its cache key's payload) could differ in the last bits by host.
# Cross-compiling needs no download: the toolchain builds std offline.
#
#   scripts/fmacheck.sh       # prints file:line of every fused op, exits 1 on any
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

status=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	# -S prints each compiled function's assembly; cached builds replay it.
	asm=$(GOARCH=$arch go build -gcflags=-S ./internal/... 2>&1) || {
		printf '%s\n' "$asm" >&2
		echo "fmacheck: $arch build failed" >&2
		exit 1
	}
	hits=$(printf '%s\n' "$asm" |
		grep -E "\(${root}/[^)]*\.go:[0-9]+\)[[:space:]]+FN?M(ADD|SUB)" |
		sed -E "s|.*\(${root}/([^)]*)\)[[:space:]]+([A-Z]+).*|\1 \2|" |
		sort -u || true)
	if [ -n "$hits" ]; then
		printf '%s\n' "$hits" | sed "s/^/$arch: /"
		status=1
	else
		echo "$arch: no fused multiply-adds"
	fi
done
exit $status
