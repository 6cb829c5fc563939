#!/usr/bin/env bash
# BENCHMARK.json's command: build the ladder binary inside the checkout, then
# exec it directly. `go run` would leave the binary as a child that can
# outlive a killed parent; exec leaves one process and nothing behind it.
# Every Go cache is pointed into bench/out so nothing outside the checkout is
# written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/xdg"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/ladder" .
exec "$out/ladder" -out "$out" -spec "$here/../BENCHMARK.json" "$@"
