#!/usr/bin/env bash
# Prints every function of this module that gc compiles to a fused
# multiply-add on arm64 (FMADDD, FMSUBD, FNMADDD, FNMSUBD), one per line,
# sorted, over the binaries of every command. gc fuses x*y + z there unless a
# conversion rounds the product first (float64(x*y) + z), so the list should
# hold only the functions that call math.FMA on purpose: the training GEMMs'
# Go loops and the sparse forward (DESIGN.md §6). CI diffs the output against
# scripts/fused.txt; after a deliberate change, regenerate the list:
# bash scripts/fused.sh > scripts/fused.txt
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
GOARCH=arm64 go build -o "$out/" ./cmd/...
for bin in "$out"/*; do
	go tool objdump "$bin"
done | awk '
	/^TEXT / { fn = $2; sub(/\(SB\)$/, "", fn) }
	/\tF(N)?M(ADD|SUB)D / && fn ~ /^heterosgd\// { print fn }' | LC_ALL=C sort -u
