#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload water-serial --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, cached start states and trace files — stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

bin="$out/perfbench"
(cd "$root/perfbench" && go build -trimpath -o "$bin.tmp.$$" . && mv -f "$bin.tmp.$$" "$bin")

# Input generation (equilibrated start states, cached per workload and
# seed) runs in its own process so it is neither timed nor counted in the
# measured process's peak memory.
"$bin" -prepare -state-dir "$out/perfbench-state" "$@" >&2
exec "$bin" -state-dir "$out/perfbench-state" -trace-dir "$out/perfbench-traces" "$@"
