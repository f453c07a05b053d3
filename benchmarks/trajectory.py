"""The benchmark's trajectory: an append-only record of ``BENCH_e2e.json``.

``BENCH_e2e.json`` holds one run and is overwritten by the next.  This
script appends that run to ``benchmarks/results/trajectory.jsonl`` as one
JSON line per workload, so the numbers of every recorded change stay
side by side:

    python3 benchmarks/trajectory.py --label "PR 28"
    python3 benchmarks/trajectory.py --label "PR 13" --rev 85223f1

The first form reads ``benchmarks/results/BENCH_e2e.json`` (``make
bench-e2e`` runs it after writing that file); the second reads the file
as committed at a git revision.  A row holds the label, where the numbers
came from, the workload and seed, and every end-to-end and workload-scoped
metric value of that workload's untraced result.  The last row of each
workload equals the committed ``BENCH_e2e.json`` (checked by
``tests/test_trajectory.py``).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, Iterable, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = "benchmarks/results/BENCH_e2e.json"
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.jsonl"


def rows(doc: dict, label: str, source: str) -> List[dict]:
    """One row per untraced workload result of a ``run.py --out`` file,
    holding every end-to-end and workload-scoped metric value."""
    return [
        {
            "label": label,
            "source": source,
            "workload": result["workload"],
            "seed": result["seed"],
            "metrics": {
                name: m["value"]
                for group in ("metrics", "scoped")
                for name, m in result.get(group, {}).items()
            },
        }
        for result in doc["results"]
        if not result["trace"]
    ]


def read_bench(rev: Optional[str] = None) -> dict:
    """``BENCH_e2e.json`` from the working tree, or as committed at ``rev``."""
    if rev is None:
        return json.loads((ROOT / BENCH).read_text(encoding="utf-8"))
    shown = subprocess.run(
        ["git", "show", f"{rev}:{BENCH}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(shown.stdout)


def read(path: pathlib.Path = TRAJECTORY) -> List[dict]:
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def last_by_workload(trajectory: Iterable[dict]) -> Dict[str, dict]:
    """The newest row of every workload."""
    last: Dict[str, dict] = {}
    for row in trajectory:
        last[row["workload"]] = row
    return last


def append(new_rows: Iterable[dict], path: pathlib.Path = TRAJECTORY) -> None:
    with path.open("a", encoding="utf-8") as fh:
        for row in new_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="what the run measured, e.g. a change's name")
    parser.add_argument("--rev", default=None,
                        help="read BENCH_e2e.json as committed at this revision")
    args = parser.parse_args(argv)
    source = f"git show {args.rev}:{BENCH}" if args.rev else BENCH
    new_rows = rows(read_bench(args.rev), args.label, source)
    append(new_rows)
    print(f"appended {len(new_rows)} rows ({args.label}) to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
