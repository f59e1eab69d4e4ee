#!/usr/bin/env python3
"""Determinism lint for streamflow.

The reproduction's central guarantee is bit-identical results across
runtimes, rank counts and schedules (DESIGN.md §5.1, §9).  This lint
flags the source patterns that silently break that guarantee long before
a golden test catches the drift.

Rules (waivable per site with `// determinism-lint: ignores <rule>` on
the offending line or the line above):

  unordered-iteration   Iterating an unordered_map / unordered_set whose
                        loop body feeds an ordering-sensitive sink —
                        message emission (send/deliver/push_back/
                        emplace_back), journals, metrics or stream
                        output.  Hash-order is unspecified and varies
                        across libc++/libstdc++ and across runs with
                        hardened hashing; anything emitted from such a
                        loop must iterate an ordered container or sort
                        first.

  wall-clock            std::chrono::system_clock, time(), gettimeofday,
                        localtime/gmtime/strftime/ctime/asctime or
                        clock() in src/.  Wall-clock values differ per
                        run; simulated/virtual time or steady_clock
                        durations (allowed) are the deterministic
                        alternatives.

  address-identity      Pointer values used as identity: %p in a format
                        string, ordered containers keyed on pointers
                        (iteration order = allocation order), or
                        reinterpret_cast of a pointer to an integer.
                        ASLR makes addresses differ every run.

  unseeded-rng          std::rand / srand / std::random_device /
                        default-constructible std library engines.  All
                        randomness goes through sf::Rng with an explicit
                        seed.  (Moved here from check_protocol.py —
                        nondeterministic randomness is a determinism bug,
                        not a protocol bug.)

Files come from build*/compile_commands.json when present (headers
always included); see lintutil.source_files.

Exit status 0 when clean, 1 with one line per finding otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

from lintutil import (is_waived, line_of, match_brace, parse_waivers,
                      source_files, strip_comments_and_strings)

FINDINGS: list[str] = []

TOOL = "determinism"

# Sinks that make hash-order observable: anything that emits, orders or
# records. Matched inside the loop body.
SINK_RE = re.compile(
    r"\b(?:send|deliver|push_back|emplace_back|journal\w*|record\w*|"
    r"log\w*|write\w*|print\w*|emit\w*)\s*\(|<<")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;=]*?>\s+(\w+)")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"),
     "std::chrono::system_clock is wall-clock; use simulated time or "
     "steady_clock durations"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:nullptr|NULL|0|&\w+)?\s*\)"),
     "time() reads the wall clock"),
    (re.compile(r"\bgettimeofday\s*\("),
     "gettimeofday reads the wall clock"),
    (re.compile(r"\b(?:localtime|gmtime|strftime|ctime|asctime)\s*\("),
     "calendar-time formatting depends on the wall clock (and locale)"),
    (re.compile(r"(?<![\w.:>])clock\s*\(\s*\)"),
     "clock() measures real CPU time; use simulated time"),
]

# Searched in the RAW text: %p lives inside string literals, which the
# comment/string stripper blanks out.
ADDRESS_RAW_PATTERNS = [
    (re.compile(r"%p\b"),
     "%p prints a pointer value; ASLR changes it every run"),
]

ADDRESS_PATTERNS = [
    (re.compile(r"\b(?:std::)?(?:map|set|multimap|multiset)\s*<\s*"
                r"(?:const\s+)?\w[\w:]*(?:\s*<[^<>]*>)?\s*\*\s*[,>]"),
     "ordered container keyed on a pointer: iteration order follows "
     "allocation addresses"),
    (re.compile(r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer-to-integer cast creates an address-derived value"),
]

RNG_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w:])rand\s*\("),
     "std::rand is unseeded/global; use sf::Rng with an explicit seed"),
    (re.compile(r"\bsrand\s*\("),
     "srand hides the seed in global state; pass a seed to sf::Rng"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; thread an explicit seed"),
    (re.compile(r"\b(mt19937(_64)?|default_random_engine|minstd_rand0?)\b"),
     "std library engines are banned in src/; use sf::Rng (explicit seed)"),
]


def report(path: pathlib.Path, line: int, msg: str, rule: str) -> None:
    FINDINGS.append(f"{path}:{line}: {msg} (rule: {rule})")


def simple_patterns(rel: pathlib.Path, raw: str, clean: str,
                    waivers: dict[int, set[str]]) -> None:
    for patterns, text, rule in [
            (WALL_CLOCK_PATTERNS, clean, "wall-clock"),
            (ADDRESS_PATTERNS, clean, "address-identity"),
            (ADDRESS_RAW_PATTERNS, raw, "address-identity"),
            (RNG_PATTERNS, clean, "unseeded-rng")]:
        for pattern, why in patterns:
            for m in pattern.finditer(text):
                line = line_of(text, m.start())
                if not is_waived(waivers, line, rule):
                    report(rel, line, why, rule)


def unordered_iteration(rel: pathlib.Path, clean: str,
                        waivers: dict[int, set[str]]) -> None:
    """Loops over unordered containers whose body feeds a sink."""
    # Every name declared as an unordered container anywhere in the file
    # (member or local).  Type-based, so renames stay covered.
    unordered = set(UNORDERED_DECL_RE.findall(clean))

    for m in re.finditer(r"\bfor\s*\(", clean):
        close = match_paren(clean, m.end() - 1)
        if close < 0:
            continue
        header = clean[m.end():close]
        target = None
        # Range-for over the container (with or without .items-style
        # accessor chains) ...
        rm = re.search(r":\s*([\w.\->]+)\s*$", header.strip())
        if rm:
            target = re.split(r"\.|->", rm.group(1))[-1]
        else:
            # ... or an iterator-for: `it = name.begin()`.
            im = re.search(r"=\s*([\w.\->]+)\s*\.\s*c?begin\s*\(", header)
            if im:
                target = re.split(r"\.|->", im.group(1))[-1]
        if target is None or target not in unordered:
            continue
        open_idx = clean.find("{", close)
        if open_idx < 0:
            continue
        body = clean[open_idx:match_brace(clean, open_idx)]
        if not SINK_RE.search(body):
            continue
        line = line_of(clean, m.start())
        if is_waived(waivers, line, "unordered-iteration"):
            continue
        report(rel, line,
               f"iterates unordered container '{target}' into an "
               f"ordering-sensitive sink; iterate an ordered container "
               f"or sort before emitting", "unordered-iteration")


def match_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("--files", nargs="*", type=pathlib.Path, default=None,
                    help="lint exactly these files instead of src/ "
                         "(fixture self-tests)")
    args = ap.parse_args()
    # A relative root would break Path.relative_to against resolved paths.
    args.root = args.root.resolve()

    if args.files is not None:
        paths = [p.resolve() for p in args.files]
    else:
        paths = source_files(args.root)

    scanned = 0
    for path in paths:
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        try:
            rel = path.relative_to(args.root)
        except ValueError:
            rel = path
        waivers = parse_waivers(raw, TOOL)
        scanned += 1
        simple_patterns(rel, raw, clean, waivers)
        unordered_iteration(rel, clean, waivers)

    for f in FINDINGS:
        print(f)
    print(f"check_determinism: {scanned} files, {len(FINDINGS)} problem(s)")
    return 1 if FINDINGS else 0


if __name__ == "__main__":
    sys.exit(main())
