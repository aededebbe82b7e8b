#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build writes (compile cache, work dir, binary) stays
# under benchmark/.build, so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/.build/tmp"
export GOCACHE="$here/.build/gocache" GOTMPDIR="$here/.build/tmp" GOPATH="$here/.build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o .build/bmehbenchmark .)
cd "$here/.."
exec "$here/.build/bmehbenchmark" "$@"
