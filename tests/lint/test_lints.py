#!/usr/bin/env python3
"""Self-test for the streamflow lints (CTest label: lint).

Each bad_* fixture seeds exactly the violation class named in its file;
the lint under test must flag it with the expected rule tag and exit
nonzero.  clean_ok.cpp exercises the deterministic/annotated
alternatives plus one waived site per lint, and must pass both lints —
proving the waiver syntax suppresses precisely its named rule.

Run directly or via ctest; exit 0 iff every case behaves.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LINT = ROOT / "tools" / "lint"

# (script, fixture, expected exit code, rule tags that must appear)
CASES = [
    ("check_determinism.py", "bad_unordered_send.cpp", 1,
     ["unordered-iteration"]),
    ("check_determinism.py", "bad_wall_clock.cpp", 1, ["wall-clock"]),
    ("check_determinism.py", "bad_pointer_key.cpp", 1, ["address-identity"]),
    ("check_determinism.py", "bad_unseeded_rng.cpp", 1, ["unseeded-rng"]),
    ("check_determinism.py", "clean_ok.cpp", 0, []),
    ("check_determinism.py", "clean_simd_kernel.cpp", 0, []),
    ("check_lock_order.py", "bad_lock_cycle.cpp", 1, ["order", "cycle"]),
    ("check_lock_order.py", "bad_missing_guard.cpp", 1, ["missing-guard"]),
    ("check_lock_order.py", "bad_raw_mutex.cpp", 1, ["raw-mutex"]),
    ("check_lock_order.py", "bad_raw_atomic.cpp", 1, ["raw-atomic"]),
    ("check_lock_order.py", "bad_unranked_mutex.cpp", 1, ["unranked-mutex"]),
    ("check_lock_order.py", "clean_ok.cpp", 0, []),
    ("check_lock_order.py", "clean_simd_kernel.cpp", 0, []),
]


def main() -> int:
    failures = []
    for script, fixture, want_rc, want_rules in CASES:
        proc = subprocess.run(
            [sys.executable, str(LINT / script), "--root", str(ROOT),
             "--files", str(HERE / fixture)],
            capture_output=True, text=True, check=False)
        out = proc.stdout + proc.stderr
        problems = []
        if proc.returncode != want_rc:
            problems.append(f"exit {proc.returncode}, wanted {want_rc}")
        for rule in want_rules:
            if f"(rule: {rule})" not in out:
                problems.append(f"missing expected rule tag '{rule}'")
        name = f"{script} {fixture}"
        if problems:
            failures.append(name)
            print(f"FAIL {name}: {'; '.join(problems)}")
            print("  --- lint output ---")
            for line in out.splitlines():
                print(f"  {line}")
        else:
            print(f"ok   {name}")

    # The lints must also pass on the real tree: a fixture pattern
    # accidentally introduced into src/ should fail CI via the direct
    # lint tests, and this guard keeps the self-test honest about it.
    for script in ("check_determinism.py", "check_lock_order.py"):
        proc = subprocess.run(
            [sys.executable, str(LINT / script), "--root", str(ROOT)],
            capture_output=True, text=True, check=False)
        name = f"{script} (tree)"
        if proc.returncode != 0:
            failures.append(name)
            print(f"FAIL {name}:")
            for line in (proc.stdout + proc.stderr).splitlines():
                print(f"  {line}")
        else:
            print(f"ok   {name}")

    # A relative --root must lint the same tree as the absolute one.
    for script in ("check_protocol.py", "check_lock_order.py"):
        proc = subprocess.run(
            [sys.executable, str(LINT / script), "--root", "."],
            cwd=ROOT, capture_output=True, text=True, check=False)
        out = proc.stdout + proc.stderr
        name = f"{script} (--root .)"
        if proc.returncode != 0 or " 0 problem(s)" not in out:
            failures.append(name)
            print(f"FAIL {name}: exit {proc.returncode}")
            for line in out.splitlines():
                print(f"  {line}")
        else:
            print(f"ok   {name}")

    print(f"test_lints: {len(CASES) + 4} cases, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
