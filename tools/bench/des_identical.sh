#!/usr/bin/env bash
# Behaviour-identity check for refactors.  The simulated runtime is
# deterministic, so a change that only restructures code must leave
# every DES bench output byte-identical:
#
#   tools/bench/des_identical.sh PARENT_BUILD CHANGE_BUILD
#
# Runs io_overlap, service_load, fault_sweep, scale_sweep (the only one
# that reaches the hybrid's root tier) and ablation_hybrid (sweeps N, NO,
# NL and W), all --quick, plus the fault runs of `streamflow experiment`
# listed in FAULT_RUNS below, from both build directories, each side in
# its own scratch directory with relative output paths, then cmp's every
# file they wrote, stdout and stderr included.  Exit 0 iff all outputs
# are identical, 1 on any difference, 2 on bad usage or a failed run.

set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# One fault run per line, flags after `streamflow experiment`: on the
# hybrid a straggler, a master crash plus drops, MTBF crashes under async
# I/O, gray slowdowns plus corruption, the 2-rank run that loses its last
# slave and the 66-rank run that loses both masters; Static with a crash
# and drops; Load On Demand with async I/O, a crash and disk faults.
small="--blocks=4 --count=150 --max-steps=400"
FAULT_RUNS=(
  "--algorithm=hybrid --procs=16 $small --slow-rank=1@0.01@10 --heartbeat=0.005"
  "--algorithm=hybrid --procs=16 $small --crash=0@0.02,5@0.03 --drop-rate=0.01"
  "--algorithm=hybrid --procs=9 $small --async-io --mtbf=0.05 --max-crashes=2"
  "--algorithm=hybrid --procs=40 $small --gray-mtbf=0.05 --corrupt-rate=0.01"
  "--algorithm=hybrid --procs=2 --blocks=4 --count=200 --max-steps=400 --crash=1@0.02"
  "--algorithm=hybrid --procs=66 $small --crash=0@0.01,1@0.02"
  "--algorithm=static --procs=8 $small --crash=3@0.02 --drop-rate=0.01"
  "--algorithm=lod --procs=8 $small --async-io --crash=2@0.02 --disk-fault-rate=0.05"
)

run_side() {  # build-dir out-dir
  local build bench i
  build="$(cd "$1" && pwd)"
  bench="$build/bench"
  mkdir -p "$2" && cd "$2" || return 1
  "$bench/io_overlap" --quick --out=io.json > io_overlap.txt 2> io_overlap.err &&
    "$bench/service_load" --quick --out=service.json > service_load.txt 2> service_load.err &&
    "$bench/fault_sweep" --quick --csv=. > fault_sweep.txt 2> fault_sweep.err &&
    "$bench/scale_sweep" --quick --out=scale.json > scale_sweep.txt 2> scale_sweep.err &&
    "$bench/ablation_hybrid" --quick --csv=. > ablation_hybrid.txt 2> ablation_hybrid.err ||
    return 1
  for i in "${!FAULT_RUNS[@]}"; do
    # shellcheck disable=SC2086  # one string of flags per run
    timeout 120 "$build/tools/streamflow" experiment ${FAULT_RUNS[$i]} \
      > "fault_run_$i.txt" 2> "fault_run_$i.err" || return 1
  done
}

run_side "$1" "$work/parent" & parent=$!
run_side "$2" "$work/change" & change=$!
wait $parent || { echo "a run failed in $1" >&2; exit 2; }
wait $change || { echo "a run failed in $2" >&2; exit 2; }

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
