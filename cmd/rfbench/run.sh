#!/usr/bin/env bash
# Builds cmd/rfbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/rfbench/run.sh --workload room-long --seed 1 --seconds 15 --trace 0
#
# Run it from anywhere inside a checkout. The binary, the Go build cache and
# every temporary file stay under .bench_build/ at the checkout root, so the
# benchmark reads and writes nothing outside the checkout apart from the Go
# toolchain itself. No network access is needed: the module has no
# dependencies outside the repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# No VCS stamping: the checkout may sit inside another repository, or none.
# A second attempt rides out a transient failure such as a compiler killed
# while the machine is short of memory.
build() { go build -C cmd/rfbench -buildvcs=false -o "$out/rfbench" .; }
build || build
exec "$out/rfbench" "$@"
