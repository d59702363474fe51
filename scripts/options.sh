#!/usr/bin/env bash
# Prints every exported field of the option structs callers fill in, one
# "pkg.Type.Field" line per field, from `go doc`. CI diffs the output against
# scripts/options.txt, so a knob that appears or disappears shows in review.
# After a deliberate change, regenerate the list:
# bash scripts/options.sh > scripts/options.txt
set -euo pipefail
cd "$(dirname "$0")/.."

while read -r dir types; do
	for t in $types; do
		# go doc's layout: "type T struct {" opens the block, "}" in column
		# one closes it, and a field line is one tab then its name(s).
		go doc "./$dir" "$t" | awk -v prefix="${dir##*/}.$t" '
			$0 ~ "^type " && / struct \{$/ { in_struct = 1; next }
			in_struct && /^}/ { exit }
			in_struct && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) {
				n = split(substr($0, 2, RLENGTH - 1), names, ", ")
				for (i = 1; i <= n; i++) print prefix "." names[i]
			}'
	done
done <<'LIST'
internal/core Config WorkerConfig WatchdogConfig Preset ClusterOptions ClusterWorkerOptions
internal/serve Options PolicyConfig
internal/elastic LoadPolicy
internal/transport TCPOptions ClientOptions
internal/data LIBSVMOptions
internal/opt HyperParams
internal/experiments Options
LIST
