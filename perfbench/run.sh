#!/usr/bin/env bash
# Builds the benchmark program and the coaxserve binary from the checkout this
# is run in, then runs the program with the given arguments. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload rows-selective --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache entry and generated input stays under
# .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/coaxserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a COAX checkout (go.mod, cmd/coaxserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/coaxserve" github.com/coax-index/coax/cmd/coaxserve)
exec "$out/perfbench" --bin "$out/coaxserve" --work "$out/work" "$@"
