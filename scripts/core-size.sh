#!/usr/bin/env bash
# Prints the size of internal/core the way every CHANGES.md entry since PR 12
# quotes it, and fails when the package outgrows its ceiling:
#   (a) non-blank, non-comment lines of the non-test .go files;
#   (b) the longest function in those files (gofmt layout: `func` in column
#       one to the next `}` in column one).
# A PR that shrinks internal/core lowers CEILING to its own result.
set -euo pipefail
cd "$(dirname "$0")/../internal/core"

CEILING=3102
LONGEST_MAX=101

files=$(ls *.go | grep -v _test)
lines=$(cat $files | grep -vcE '^\s*(//.*)?$')
longest=$(awk '
	FNR == 1 { start = 0 }
	/^func / { start = FNR; name = $0 }
	/^}/ && start { n = FNR - start + 1; if (n > max) { max = n; where = FILENAME ": " name }; start = 0 }
	END { print max, where }' $files)

echo "internal/core: $lines non-blank non-comment lines (ceiling $CEILING)"
echo "longest function: ${longest%% *} lines (max $LONGEST_MAX) — ${longest#* }"

[ "$lines" -le "$CEILING" ] || { echo "FAIL: internal/core grew past its ceiling" >&2; exit 1; }
[ "${longest%% *}" -le "$LONGEST_MAX" ] || { echo "FAIL: a function exceeds $LONGEST_MAX lines" >&2; exit 1; }
