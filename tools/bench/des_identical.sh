#!/usr/bin/env bash
# Behaviour-identity check for refactors.  The simulated runtime is
# deterministic, so a change that only restructures code must leave
# every DES bench output byte-identical:
#
#   tools/bench/des_identical.sh PARENT_BUILD CHANGE_BUILD
#
# Runs io_overlap, service_load, fault_sweep, scale_sweep (the only one
# that reaches the hybrid's root tier) and ablation_hybrid (sweeps N, NO,
# NL and W), all --quick, from both build directories, each side in its
# own scratch directory with relative output paths, then cmp's every
# file they wrote, stdout and stderr included.  Exit 0 iff all outputs are identical, 1 on any
# difference, 2 on bad usage or a failed bench.

set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run_side() {  # build-dir out-dir
  local bench
  bench="$(cd "$1" && pwd)/bench"
  mkdir -p "$2" && cd "$2" || return 1
  "$bench/io_overlap" --quick --out=io.json > io_overlap.txt 2> io_overlap.err &&
    "$bench/service_load" --quick --out=service.json > service_load.txt 2> service_load.err &&
    "$bench/fault_sweep" --quick --csv=. > fault_sweep.txt 2> fault_sweep.err &&
    "$bench/scale_sweep" --quick --out=scale.json > scale_sweep.txt 2> scale_sweep.err &&
    "$bench/ablation_hybrid" --quick --csv=. > ablation_hybrid.txt 2> ablation_hybrid.err
}

run_side "$1" "$work/parent" & parent=$!
run_side "$2" "$work/change" & change=$!
wait $parent || { echo "benches failed in $1" >&2; exit 2; }
wait $change || { echo "benches failed in $2" >&2; exit 2; }

status=0
for f in "$work"/parent/*; do
  name="$(basename "$f")"
  if cmp -s "$f" "$work/change/$name"; then
    echo "identical  $name"
  else
    echo "DIFFERENT  $name"
    status=1
  fi
done
for f in "$work"/change/*; do
  name="$(basename "$f")"
  [ -e "$work/parent/$name" ] || { echo "ONLY IN CHANGE  $name"; status=1; }
done
exit $status
