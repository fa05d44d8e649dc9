#!/usr/bin/env bash
# Builds the benchmark and tlsd from this checkout, then runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, scratch cache dirs,
# spans) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

go -C perfbench build -o "$out/bin/" . tlssync/cmd/tlsd

# A checkout without git history is identified by its Go sources.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null ||
	find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16 | sed 's/^/tree-/')

exec "$out/bin/perfbench" -tlsd "$out/bin/tlsd" -workdir "$out/work" \
	-digests perfbench/digests.json -commit "$commit" "$@"
