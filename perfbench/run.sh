#!/usr/bin/env bash
# Builds ssspd, ssspr and the benchmark program (perfbench) from this
# checkout's sources into the build directory, then runs perfbench. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 20 --trace 0
#
# The build directory is $CARGO_TARGET_DIR when set (a path inside the
# checkout), else .bench_build. The Go build cache and every file a run
# writes stay under it.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/ssspd" repro/cmd/ssspd
	go build -o "$out/bin/ssspr" repro/cmd/ssspr
) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
