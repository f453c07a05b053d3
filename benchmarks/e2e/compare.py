"""Compare two sets of result files, metric by metric and workload by workload.

    python3 benchmarks/e2e/compare.py --base a.json [a2.json ...] \
                                      --new b.json [b2.json ...]

Each file is what ``run.py --out`` wrote.  For every end-to-end metric and
workload (untraced runs only) the table shows each side's median and
quartiles over its files, the ratio new/base with its base, and a verdict
against the bound the benchmark fixed for that metric:

``unchanged``   the medians differ by no more than the bound;
``improved`` / ``regressed``   they differ by more, in that direction;
``unresolved``  they differ by more than the bound, but a side's own
                run-to-run spread (quartile distance over median) is wider
                than the bound and the two sides' runs interleave.

Metrics that repeat exactly (sim-clock times, byte counts, ``cil``) are
compared for equality.  The exit code is 1 if any row is ``regressed`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

if not __package__:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.e2e.contract import EXACT, WORKLOAD_NAMES, bounds  # noqa: E402

Key = Tuple[str, str]   # (workload, metric)


def load(paths: List[str]) -> Dict[Key, List[float]]:
    """(workload, metric) -> one value per untraced run in ``paths``."""
    values: Dict[Key, List[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for result in doc["results"]:
            if result["trace"]:
                continue
            for group in ("metrics", "scoped"):
                for name, m in result.get(group, {}).items():
                    values.setdefault((result["workload"], name), []).append(
                        m["value"]
                    )
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return q[0], med, q[2]


def verdict(name: str, base: List[float], new: List[float],
            better: str, bound: float) -> str:
    b_lo, b_med, b_hi = quartiles(base)
    n_lo, n_med, n_hi = quartiles(new)
    if name in EXACT:
        if set(base) == set(new):
            return "unchanged"
        gain = (b_med - n_med) if better == "lower" else (n_med - b_med)
        return "improved" if gain > 0 else "regressed"
    if b_med == 0:
        return "unchanged" if n_med == 0 else "unresolved"
    change = n_med / b_med - 1.0
    gain = -change if better == "lower" else change
    if abs(gain) <= bound:
        return "unchanged"
    spread = max((b_hi - b_lo) / abs(b_med), (n_hi - n_lo) / abs(n_med))
    interleave = min(new) <= max(base) and min(base) <= max(new)
    if spread > bound and interleave:
        return "unresolved"
    return "improved" if gain > 0 else "regressed"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    declared = bounds()
    print(f"{'workload':<20s} {'metric':<28s} {'unit':<6s} "
          f"{'base q1/median/q3':>34s} {'new q1/median/q3':>34s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    bad = 0
    for workload in WORKLOAD_NAMES:
        for name, (unit, better, bound) in declared.items():
            key = (workload, name)
            if key not in base or key not in new:
                continue
            b, n = quartiles(base[key]), quartiles(new[key])
            ratio = n[1] / b[1] if b[1] else float("nan")
            v = verdict(name, base[key], new[key], better, bound)
            bad += v in ("regressed", "unresolved")
            print(f"{workload:<20s} {name:<28s} {unit:<6s} "
                  f"{b[0]:>11.5g}{b[1]:>12.5g}{b[2]:>11.5g} "
                  f"{n[0]:>11.5g}{n[1]:>12.5g}{n[2]:>11.5g} "
                  f"{ratio:>9.4f} {bound:>6.2f}  {v}")
    print(f"base = {len(args.base)} file(s), new = {len(args.new)} file(s); "
          f"{bad} row(s) regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
