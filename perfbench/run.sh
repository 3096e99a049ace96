#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through (see doc.go for flags).
# The binary, the Go build cache and the toolchain's home directory all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
		GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off \
		go build -buildvcs=false -o "$out/perfbench" .
)
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
