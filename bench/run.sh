#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build writes (the binary, Go's build cache) goes to
# .bench_build/ at the repository root, so a run touches nothing outside
# the checkout. bench/ is a module of its own that imports the simulator
# through a replace directive; without the repository around it the build
# fails and this script exits non-zero before printing any result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
