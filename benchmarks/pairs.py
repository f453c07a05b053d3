"""Paired benchmark runs: this checkout against a git revision.

    python3 benchmarks/pairs.py --workload full_update --n 10 --base HEAD~1
    python3 benchmarks/pairs.py --workload serve_steady coupled_train_serve
    make bench-pairs W="serve_steady coupled_train_serve" N=10 BASE=HEAD~1

The revision ``--base`` is exported with ``git archive`` into a temporary
tree; the *new* side is this checkout as it stands, uncommitted edits
included.  Each workload named by ``--workload`` gets ``--n`` pairs, one
workload after the other.  A pair runs ``benchmarks/e2e/run.py
--workload W --seed S --trace 0 --out ...`` once per side, each side
from its own tree, and the side that goes first alternates from pair to
pair, so a drift in the host's load lands on both sides alike.  The
result files go to ``--out-dir`` (``<W>/base_<i>.json`` /
``<W>/new_<i>.json``; a temporary directory when not given).  When a
workload's pairs are done, its files are handed to
``benchmarks/e2e/compare.py``, and one row per end-to-end metric shows
each side's quartiles and median and in how many pairs the new run beat
its base partner.  Exit code: the worst of compare.py's, one per
workload.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import pathlib
import subprocess
import sys
import tarfile
import tempfile
from typing import List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import compare  # noqa: E402
from benchmarks.e2e.contract import WORKLOAD_NAMES, bounds  # noqa: E402

SIDES = ("base", "new")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, nargs="+", choices=WORKLOAD_NAMES,
                   help="one or more workloads, each run as its own --n pairs")
    p.add_argument("--n", type=int, default=10, help="pairs to run (>= 1)")
    p.add_argument("--base", default="HEAD", help="git revision to compare to")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", help="keep the result files here")
    args = p.parse_args(argv)
    if args.n < 1:
        p.error(f"--n must be >= 1, got {args.n}")
    if len(set(args.workload)) != len(args.workload):
        p.error(f"a workload is named twice: {' '.join(args.workload)}")
    return args


def schedule(n: int) -> List[Tuple[int, str]]:
    """``(pair, side)`` in run order: pair 0 runs base first, pair 1 new
    first, and so on."""
    return [(i, SIDES[(i + k) % 2]) for i in range(n) for k in (0, 1)]


def plan(workloads: Sequence[str], n: int) -> List[Tuple[str, int, str]]:
    """``(workload, pair, side)`` in run order: all of the first
    workload's pairs, then all of the next one's."""
    return [(w, i, side) for w in workloads for i, side in schedule(n)]


def run_command(tree: pathlib.Path, workload: str, seed: int,
                out: pathlib.Path) -> List[str]:
    """One untraced benchmark run of the tree at ``tree``."""
    return [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        "--out", str(out),
    ]


def pair_wins(base: Sequence[float], new: Sequence[float],
              better: str) -> Tuple[int, int]:
    """``(wins, ties)`` of ``new[i]`` against ``base[i]``, pair by pair."""
    wins = ties = 0
    for b, n in zip(base, new):
        if b == n:
            ties += 1
        elif (n < b) == (better == "lower"):
            wins += 1
    return wins, ties


def export(rev: str, into: pathlib.Path) -> None:
    """The tree of ``rev`` (committed files only) extracted into ``into``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def report(files: dict, workload: str) -> None:
    """Per end-to-end metric: each side's q1/median/q3 and the pair wins."""
    n = len(files["base"])
    values = {
        side: [compare.load([str(path)]) for path in files[side]]
        for side in SIDES
    }
    print(f"\n{workload}: {n} pair(s), wins = new better than its base partner")
    print(f"{'metric':<28s} {'base q1/median/q3':>34s} "
          f"{'new q1/median/q3':>34s} {'wins':>6s} {'ties':>5s}")
    for name, (_unit, better, _bound) in bounds().items():
        key = (workload, name)
        if any(key not in run for side in SIDES for run in values[side]):
            continue
        per = {side: [run[key][0] for run in values[side]] for side in SIDES}
        b, nq = compare.quartiles(per["base"]), compare.quartiles(per["new"])
        wins, ties = pair_wins(per["base"], per["new"], better)
        print(f"{name:<28s} {b[0]:>11.5g}{b[1]:>12.5g}{b[2]:>11.5g} "
              f"{nq[0]:>11.5g}{nq[1]:>12.5g}{nq[2]:>11.5g} "
              f"{wins:>3d}/{n:<2d} {ties:>5d}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    codes = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_tree = pathlib.Path(tmp) / "base"
        base_tree.mkdir()
        export(args.base, base_tree)
        out_dir = pathlib.Path(args.out_dir or pathlib.Path(tmp) / "results")
        trees = {"base": base_tree, "new": ROOT}
        files = {w: {side: [] for side in SIDES} for w in args.workload}
        for workload, i, side in plan(args.workload, args.n):
            out = out_dir / workload / f"{side}_{i}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            print(f"== {workload} pair {i + 1}/{args.n}: {side}", flush=True)
            subprocess.run(
                run_command(trees[side], workload, args.seed, out),
                check=True, cwd=trees[side], stdout=subprocess.DEVNULL,
            )
            done = files[workload]
            done[side].append(out)
            if len(done["base"]) == len(done["new"]) == args.n:
                codes.append(compare.main([
                    "--base", *map(str, done["base"]),
                    "--new", *map(str, done["new"]),
                ]))
                report(done, workload)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
