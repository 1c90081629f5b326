#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments from the checkout root, e.g.
#
#   bash perfbench/run.sh --workload engine-solve --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' span files stay under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero without printing a result, when the repository sources the
# benchmark drives are not present.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
