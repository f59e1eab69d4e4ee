#!/usr/bin/env python3
"""End-to-end benchmark of the streamline library.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the sfperf binary) with
CMake in Release, runs one workload for about S seconds and prints every
metric by name with its unit.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1.  The build goes to $CARGO_TARGET_DIR/perfbench-<hash of
this directory's path> (default under .bench_build); the workload's
block store is written under it and removed at the end.  Exits non-zero
without a result line if the build, the run or the result check fails.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    # Configure every time: cheap when the cache is current, and CMake
    # refuses a cache that was made for another source tree.
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "sfperf",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return build_dir / "sfperf"


def check_result(line: str, trace: bool) -> dict:
    """Check the result against the metric list of BENCHMARK.json.

    A per-layer metric of a layer the workload does not exercise is
    absent from sfperf's output and reported here as 0.
    """
    result = json.loads(line)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(wanted))
    if extra:
        raise ValueError(f"metrics not in BENCHMARK.json: {extra}")
    for name, unit in wanted.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
        if metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']}, "
                             f"BENCHMARK.json says {unit}")
        if not math.isfinite(metrics[name]["value"]):
            raise ValueError(f"metric {name} is not finite")
    if result["attempted"] < 1:
        raise ValueError("no operation was attempted")
    result["metrics"] = dict(sorted(metrics.items()))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # One build directory per source tree, so checkouts that share an
    # absolute CARGO_TARGET_DIR never build or time each other's sources.
    tree = hashlib.sha1(str(HERE).encode()).hexdigest()[:12]
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / f"perfbench-{tree}")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    data = build_dir / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--data={data}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: sfperf exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = check_result(lines[-1], bool(args.trace))
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: bad result: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
