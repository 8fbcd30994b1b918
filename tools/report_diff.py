#!/usr/bin/env python3
"""Compare two report.json files.

    python3 tools/report_diff.py OLD_REPORT NEW_REPORT

Prints one line per path that holds differing floats, with list indices
folded into `*`: the largest relative difference |a - b| / max(|a|, |b|)
over the path's floats and how many of them differ. Then it prints every
other mismatch: unequal non-float leaves, leaves of different types, dicts
with different keys and lists of different lengths. Exits 1 when the
reports differ at all. Standard library only.
"""

import json
import math
import sys
from pathlib import Path


def differences(got, want, abs_tol=0.0, skip=frozenset(), path=()):
    """Yield (path, got, want) wherever two JSON documents differ.

    A path is a tuple of keys and list indices (as strings). Float leaves
    count as equal within `abs_tol`; paths in `skip` are not compared. A
    dict pair with different keys yields the sorted key lists, a list pair
    of different lengths yields the lengths.
    """
    if path in skip:
        return
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            yield path, sorted(got), sorted(want)
            return
        for key in want:
            yield from differences(got[key], want[key], abs_tol, skip, path + (key,))
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield path, len(got), len(want)
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, abs_tol, skip, path + (str(i),))
    elif type(want) is float and type(got) is float:
        if not math.isclose(got, want, rel_tol=0.0, abs_tol=abs_tol):
            yield path, got, want
    elif not (type(got) is type(want) and got == want):
        yield path, got, want


def relative_difference(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else float(a != b)


def summarize(old, new):
    """(float rows, other mismatches): rows are (folded path, largest
    relative difference, count) in first-seen order; mismatches are
    (path, old, new)."""
    floats, others = {}, []
    for path, a, b in differences(old, new):
        if type(a) is float and type(b) is float:
            folded = "/".join("*" if part.isdigit() else part for part in path)
            worst, count = floats.get(folded, (0.0, 0))
            floats[folded] = max(worst, relative_difference(a, b)), count + 1
        else:
            others.append((path, a, b))
    return [(p, worst, count) for p, (worst, count) in floats.items()], others


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_diff.py OLD_REPORT NEW_REPORT", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    rows, others = summarize(old, new)
    for path, worst, count in rows:
        print(f"{worst:.3g}\t{count}\t{path}")
    for path, a, b in others:
        print(f"mismatch\t{'/'.join(path)}: {a!r} != {b!r}")
    if not rows and not others:
        print("identical")
    return 1 if rows or others else 0


if __name__ == "__main__":
    sys.exit(main())
