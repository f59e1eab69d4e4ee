#!/usr/bin/env bash
# The only writer of the deterministic DES baselines at the repo root:
#
#   tools/bench/regen_baselines.sh BUILD_DIR
#
# BUILD_DIR must be a Release build with the bench targets built.  The
# simulator is deterministic, so a given build always writes the same
# bytes; a baseline that moves means the simulated behaviour changed, and
# the commit that moves it says why in CHANGES.md.
#
# Writes BENCH_io{,.quick}.json, BENCH_scale{,.quick}.json,
# BENCH_service{,.quick}.json, BENCH_fault_straggler.quick.json,
# BENCH_fault_sweep.csv and BENCH_fault_sweep_coordinator.csv.  Every
# bench runs first, in a scratch directory; the baselines are replaced
# only once all of them succeeded.  The host-dependent baselines
# (BENCH_advect.json, BENCH_micro.json) measure the machine, not the
# simulator, and are not written here.
#
# Exit 0 on success, 1 on a failed bench, 2 on bad usage or a build that
# is not Release.

set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/../.." && pwd)"
build="$(cd "$1" 2>/dev/null && pwd)" || { echo "no such dir: $1" >&2; exit 2; }
cache="$build/CMakeCache.txt"
if [ ! -f "$cache" ]; then
  echo "$build has no CMakeCache.txt" >&2
  exit 2
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cache")"
if [ "$build_type" != "Release" ]; then
  echo "$build is a '${build_type}' build; baselines come from Release" >&2
  exit 2
fi
compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$cache")"
echo "build type: $build_type"
echo "compiler:   $("$compiler" --version | head -n 1)"

bench="$build/bench"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/quick" "$work/full"

run() {  # name, then the bench command line
  local name="$1"
  shift
  echo "running $name"
  "$@" > "$work/$name.log" 2>&1 || {
    echo "$name failed; baselines left as they were:" >&2
    tail -n 20 "$work/$name.log" >&2
    exit 1
  }
}

run io_overlap "$bench/io_overlap" --out="$work/io.json"
run io_overlap.quick "$bench/io_overlap" --quick --out="$work/io.quick.json"
run scale_sweep "$bench/scale_sweep" --out="$work/scale.json"
run scale_sweep.quick "$bench/scale_sweep" --quick \
  --out="$work/scale.quick.json"
run service_load "$bench/service_load" --out="$work/service.json"
run service_load.quick "$bench/service_load" --quick \
  --out="$work/service.quick.json"
run fault_sweep "$bench/fault_sweep" --csv="$work/full"
run fault_sweep.quick "$bench/fault_sweep" --quick --csv="$work/quick"

place() {  # scratch output, committed baseline
  if cmp -s "$1" "$root/$2"; then
    echo "unchanged  $2"
  else
    cp "$1" "$root/$2"
    echo "updated    $2"
  fi
}

place "$work/io.json" BENCH_io.json
place "$work/io.quick.json" BENCH_io.quick.json
place "$work/scale.json" BENCH_scale.json
place "$work/scale.quick.json" BENCH_scale.quick.json
place "$work/service.json" BENCH_service.json
place "$work/service.quick.json" BENCH_service.quick.json
place "$work/quick/fault_straggler.json" BENCH_fault_straggler.quick.json
place "$work/full/fault_sweep.csv" BENCH_fault_sweep.csv
place "$work/full/fault_sweep_coordinator.csv" \
  BENCH_fault_sweep_coordinator.csv
