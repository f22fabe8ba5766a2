#!/usr/bin/env python3
"""Compare benchmark results under the bounds BENCHMARK.json fixes.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json A2.json ... --vs B1.json B2.json ...
    python3 bench/compare.py --spread R1.json R2.json ...

Each file is a ``bench/run.py --out`` result.  A is the parent (or the
first set of runs), B the change (or the second set).  One row per
(workload, end-to-end metric):

* ``REGRESSED``  B is worse than A by more than the metric's bound;
* ``improved``   B is better than A by more than the bound;
* ``unchanged``  the medians differ by no more than the bound *and* the
  quartile spread of both sides is within the bound;
* ``unresolved`` the spread of either side exceeds the bound (unless
  every run of B reads better than every run of A), or a run was
  flagged unresolved (loaded box, late open-loop generator).

With one file per side the spread is the one recorded inside the run
(quartiles over its reps or rounds); with several files per side it is
the spread between the runs' values, as the acceptance rule takes it.
``--spread`` prints that run-to-run spread for one set of runs against
a third of each bound: the steadiness the benchmark is held to.

Exit status: 1 if any row REGRESSED, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Side:
    """One side of the comparison: the same benchmark, run >= 1 times."""

    def __init__(self, paths: List[str]) -> None:
        self.runs = []
        for path in paths:
            with open(path) as fh:
                self.runs.append(json.load(fh)["workloads"])

    def workloads(self) -> List[str]:
        names: List[str] = []
        for run in self.runs:
            names += [w for w in run if w not in names and "timed" in run[w]]
        return names

    def flagged(self, workload: str) -> List[str]:
        return sorted({
            reason for run in self.runs if workload in run
            for kind in run[workload].values()
            for reason in kind.get("unresolved") or []
        })

    def summary(self, workload: str, metric: str) -> Optional[Tuple]:
        """(median, q1, q3, values) of ``metric`` on ``workload``."""
        cells = [
            run[workload]["timed"]["metrics"][metric] for run in self.runs
            if workload in run and "timed" in run[workload]
            and metric in run[workload]["timed"]["metrics"]
        ]
        if not cells:
            return None
        if len(cells) == 1:
            cell = cells[0]
            value = cell["value"]
            q1 = cell["q1"] if cell.get("q1") is not None else value
            q3 = cell["q3"] if cell.get("q3") is not None else value
            return value, q1, q3, [value]
        values = [c["value"] for c in cells]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return q2, q1, q3, values


def spread(summary: Tuple) -> float:
    median, q1, q3, _ = summary
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Tuple, b: Tuple, better: str, bound: float,
            flagged: List[str]) -> Tuple[str, float]:
    """The row's verdict and how much worse B is than A (share of A)."""
    worse = (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
    if better == "higher":
        worse = -worse
    if flagged:
        return "unresolved", worse
    if max(spread(a), spread(b)) > bound:
        # "Every run of B beats every run of A" needs runs to compare.
        clear = len(a[3]) > 1 and len(b[3]) > 1 and (
            min(b[3]) > max(a[3]) if better == "higher"
            else max(b[3]) < min(a[3])
        )
        return ("improved" if clear else "unresolved"), worse
    if worse > bound:
        return "REGRESSED", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def compare(spec: Dict, a: Side, b: Side) -> int:
    regressed = 0
    print(f"{'workload':<20} {'metric':<22} {'A':>13} {'B':>13} "
          f"{'worse by':>9} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in a.workloads():
        flagged = a.flagged(workload) + b.flagged(workload)
        for metric in spec["end_to_end"]:
            sa = a.summary(workload, metric["name"])
            sb = b.summary(workload, metric["name"])
            if sa is None or sb is None:
                continue
            word, worse = verdict(
                sa, sb, metric["better"], metric["bound"], flagged
            )
            regressed += word == "REGRESSED"
            print(f"{workload:<20} {metric['name']:<22} {sa[0]:>13.6g} "
                  f"{sb[0]:>13.6g} {worse:>+9.2%} {metric['bound']:>6.0%} "
                  f"{spread(sa):>9.2%} {spread(sb):>9.2%}  {word}")
        for reason in flagged:
            print(f"{workload:<20} flagged: {reason}")
    return 1 if regressed else 0


def show_spread(spec: Dict, side: Side) -> int:
    wide = 0
    print(f"{'workload':<20} {'metric':<22} {'median':>13} {'spread':>8} "
          f"{'bound/3':>8}  n")
    for workload in side.workloads():
        for metric in spec["end_to_end"]:
            s = side.summary(workload, metric["name"])
            if s is None:
                continue
            limit = metric["bound"] / 3
            mark = "" if spread(s) <= limit else "  WIDE"
            wide += bool(mark) and metric["name"] != "setup_s"
            print(f"{workload:<20} {metric['name']:<22} {s[0]:>13.6g} "
                  f"{spread(s):>8.2%} {limit:>8.2%}  {len(s[3])}{mark}")
    return 1 if wide else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("files", nargs="+")
    parser.add_argument("--vs", nargs="+", default=None)
    parser.add_argument("--spread", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.spread:
        return show_spread(spec, Side(args.files))
    if args.vs is None:
        if len(args.files) != 2:
            parser.error("give A.json B.json, or several files with --vs")
        return compare(spec, Side(args.files[:1]), Side(args.files[1:]))
    return compare(spec, Side(args.files), Side(args.vs))


if __name__ == "__main__":
    sys.exit(main())
