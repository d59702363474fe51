#!/usr/bin/env bash
# Prints every exported function and method declared in the non-test files
# under internal/, one "pkg.Name" or "pkg.Type.Name" line each, sorted. CI
# diffs the output against scripts/exports.txt, so an export that appears or
# disappears shows in review. After a deliberate change, regenerate the list:
# bash scripts/exports.sh > scripts/exports.txt
set -euo pipefail
cd "$(dirname "$0")/.."

id='[A-Za-z0-9_]'
find internal -name '*.go' ! -name '*_test.go' | while read -r f; do
	# gofmt puts every top-level func at column one: "func Name(" or
	# "func Name[T any](", and "func (r *Type) Name(" with an optional
	# receiver name, pointer and type parameters.
	pkg=$(basename "$(dirname "$f")")
	sed -nE \
		-e "s/^func ([A-Z]$id*)[[(].*/$pkg.\1/p" \
		-e "s/^func \(($id+ )?\*?([A-Z]$id*)(\[[^]]*\])?\) ([A-Z]$id*)\(.*/$pkg.\2.\4/p" \
		"$f"
done | LC_ALL=C sort -u
