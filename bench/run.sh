#!/usr/bin/env bash
# Builds the harness from this checkout's source and runs it from the
# checkout root; every argument is passed through (see main.go).
# Everything the Go toolchain writes stays under bench/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$here" -o "$out/bin/bench" .
cd "$here/.."
exec "$out/bin/bench" "$@"
