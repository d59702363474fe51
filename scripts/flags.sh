#!/usr/bin/env bash
# Prints every command's flag names with their defaults, one "command -flag
# default" line per flag, from the `-h` output of freshly built binaries.
# CI diffs the output against scripts/flags.txt, so a flag that appears,
# disappears or changes its default fails the build. After a deliberate
# change, regenerate the list: bash scripts/flags.sh > scripts/flags.txt
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

for cmd in datagen hogbench hogcluster hogserve hogsweep hogtrain; do
	go build -o "$bin/$cmd" "./cmd/$cmd"
	# flag's usage layout: "  -name [type]" opens a flag, and its help text
	# ends in "(default X)" unless the default is the type's zero value.
	"$bin/$cmd" -h 2>&1 | awk -v cmd="$cmd" '
		function flush() { if (name != "") print cmd " " name (def == "" ? "" : " " def) }
		/^  -/ { flush(); name = $1; def = ""; next }
		match($0, /\(default .*\)$/) { def = substr($0, RSTART + 9, RLENGTH - 10) }
		END { flush() }'
done
