#!/usr/bin/env bash
# Prints the size of the program — non-blank, non-comment lines of the
# non-test .go files outside bench/, counted the way scripts/core-size.sh
# counts internal/core — and fails when it outgrows its ceiling.
# A PR that shrinks the program lowers CEILING to its own result.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=14052

lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -print0 |
	xargs -0 cat | grep -vcE '^\s*(//.*)?$')

echo "non-test Go outside bench/: $lines non-blank non-comment lines (ceiling $CEILING)"

[ "$lines" -le "$CEILING" ] || { echo "FAIL: the program grew past its ceiling" >&2; exit 1; }
