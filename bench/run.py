#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the PINT sink pipeline.

    python3 bench/run.py                       every workload, timed + traced
    python3 bench/run.py --workload W --traced one workload, ledger only
    python3 bench/run.py --out F               also write every number to F
    python3 bench/run.py --selftest            all workloads at 1/20 size

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        the machine form: one workload, one kind of run, and as the last
        line of stdout one JSON object with the keys correct, attempted,
        failed and metrics (end-to-end metrics for --trace 0, per-layer
        metrics for --trace 1), named and united as in BENCHMARK.json.

Every workload runs in fresh subprocesses (``child.py``).  A timed run
is ROUNDS processes, each setting up from nothing and then repeating
``ReplayDriver.replay`` with tracing off for its share of ``--seconds``:
set-up time is the median over the rounds, throughput the median over
every rep of every round.  The traced run is one more process.  Any
failed check makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Fresh set-ups (processes) per timed run.
ROUNDS = 3
#: Open-loop phase length as a share of --seconds, and its ceiling.
OPEN_LOOP_SHARE = 0.5
OPEN_LOOP_MAX_S = 10.0
CHILD_TIMEOUT_S = 170.0
SELFTEST_SCALE = 0.05
MIN_TOP_LEVEL_COVER = 0.95


def load_spec() -> Dict:
    with open(SPEC_FILE) as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n, the way the acceptance rule takes them."""
    if len(values) < 2:
        v = values[0]
        return {"value": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


def run_child(mode: str, workload: str, seed: int, seconds: float,
              scale: float, open_loop_s: float) -> Dict:
    """Run ``child.py`` to completion in its own process group and
    return the JSON object on its last stdout line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--scale", repr(scale),
        "--open-loop-seconds", repr(open_loop_s), "--out-dir", OUT_DIR,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # The child leads its own process group: whatever it left behind
        # (it should leave nothing) ends here, and is waited for.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: {mode} child exited with {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def timed_run(workload: str, seed: int, seconds: float, scale: float,
              rounds: int) -> Dict:
    parts = [
        run_child("timed", workload, seed, seconds / rounds, scale, 0.0)
        for _ in range(rounds)
    ]
    first = parts[0]
    offered = first["offered"]
    walls = [w for p in parts for w in p["walls_s"]]
    failures = [f for p in parts for f in p["failures"]]
    for key in ("digest", "state_bytes", "flows_live", "path_decoded"):
        if any(p[key] != first[key] for p in parts):
            failures.append(f"{key} differs between rounds of one run")
    e2e = quartiles([offered / w for w in walls])
    e2e["value"] = offered / statistics.median(walls)
    cpu = quartiles([
        c / (offered / 1e6) for p in parts for c in p["cpus_s"]
    ])
    rss = quartiles([p["peak_rss_mb"] for p in parts])
    rss["value"] = max(p["peak_rss_mb"] for p in parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    exact = {"q1": None, "q3": None, "n": 1}
    return {
        "env": first["env"],
        "correct": not failures, "failures": failures,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "digest": first["digest"],
        "unresolved": sorted({u for p in parts for u in p["unresolved"]}),
        "rep_walls_s": [p["walls_s"] for p in parts],
        "metrics": {
            "setup_s": quartiles([p["setup_s"] for p in parts]),
            "e2e_rps": e2e,
            "cpu_s_per_mrec": cpu,
            "peak_rss_mb": rss,
            "state_bytes_per_flow": {
                "value": first["state_bytes"] / first["flows_live"], **exact
            },
            "decoded_flow_share": {
                "value": first["path_decoded"] / first["path_flows"], **exact
            },
        },
    }


def traced_run(workload: str, seed: int, seconds: float,
               scale: float) -> Dict:
    open_loop_s = min(OPEN_LOOP_MAX_S, seconds * OPEN_LOOP_SHARE)
    part = run_child("traced", workload, seed, seconds, scale, open_loop_s)
    part["metrics"] = {
        name: {"value": value, "n": part["samples"].get(name)}
        for name, value in part.pop("per_layer").items()
    }
    part["failed_share"] = part["failed"] / part["attempted"]
    return part


def machine_line(result: Dict, catalogue: List[Dict]) -> str:
    """The one-line result: exactly the metrics ``catalogue`` names."""
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {
                "value": result["metrics"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in catalogue
        },
    }, allow_nan=False)


def show(workload: str, kind: str, result: Dict, catalogue: List[Dict]) -> None:
    """Every metric by name with its unit, for a person."""
    status = "ok" if result["correct"] else "FAILED"
    unresolved = result.get("unresolved") or []
    if unresolved:
        status += "  UNRESOLVED: " + "; ".join(unresolved)
    print(f"== {workload} [{kind}]  {status}  failed_ops={result['failed']}"
          f"/attempted_ops={result['attempted']}"
          f"  failed_share={result['failed_share']:g}")
    units = {m["name"]: m["unit"] for m in catalogue}
    for name, m in result["metrics"].items():
        line = f"  {name:<42} {m['value']:>16.6g} {units.get(name, ''):<7}"
        if m.get("q1") is not None and m["n"] > 1:
            line += f" [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}]"
        elif m.get("n"):
            line += f" [n {m['n']}]"
        print(line)
    for failure in result["failures"]:
        print(f"  FAILED CHECK: {failure}")


def validate_spec(spec: Dict, workload_names: List[str]) -> List[str]:
    """Problems with BENCHMARK.json itself (empty when it is sound)."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != workload_names:
        problems.append("workload names differ from workloads.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    ):
        problems.append("end_to_end lacks setup_s [s, lower]")
    return problems


def selftest(spec: Dict, workload_names: List[str]) -> int:
    """Every workload at 1/20 size: schema, names, coverage, tiling."""
    started = time.monotonic()
    problems = validate_spec(spec, workload_names)
    for name in workload_names:
        timed = timed_run(name, 0, 0.3, SELFTEST_SCALE, rounds=1)
        traced = traced_run(name, 0, 1.0, SELFTEST_SCALE)
        for kind, result, catalogue in (
            ("timed", timed, spec["end_to_end"]),
            ("traced", traced, spec["per_layer"]),
        ):
            missing = [
                m["name"] for m in catalogue
                if m["name"] not in result["metrics"]
            ]
            if missing:
                problems.append(f"{name} {kind}: not emitted: {missing}")
                continue
            line = json.loads(machine_line(result, catalogue))
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} {kind}: result keys {sorted(line)}")
            if not (isinstance(line["attempted"], int) and line["attempted"] >= 1
                    and isinstance(line["failed"], int)
                    and isinstance(line["correct"], bool)):
                problems.append(f"{name} {kind}: bad correct/attempted/failed")
            for metric, body in line["metrics"].items():
                if sorted(body) != ["unit", "value"] or not isinstance(
                    body["value"], (int, float)
                ):
                    problems.append(f"{name} {kind}: bad metric {metric}")
            if not result["correct"]:
                problems.append(f"{name} {kind}: {result['failures']}")
        zero = [
            m["name"] for m in spec["end_to_end"]
            if not timed["metrics"][m["name"]]["value"] > 0
        ]
        if zero:
            problems.append(f"{name}: end-to-end metrics at 0: {zero}")
        if traced["top_level_cover"] < MIN_TOP_LEVEL_COVER:
            problems.append(
                f"{name}: top-level spans tile only "
                f"{traced['top_level_cover']:.3f} of the traced wall"
            )
        print(f"selftest {name}: cover {traced['top_level_cover']:.4f}, "
              f"{traced['spans']} spans, digest {traced['digest'][:12]}")
    for problem in problems:
        print(f"SELFTEST PROBLEM: {problem}")
    print(f"selftest {'FAILED' if problems else 'passed'} in "
          f"{time.monotonic() - started:.1f} s")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: the program under test (src/repro) is not "
              "in this checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from workloads import WORKLOADS
        return selftest(spec, [w.name for w in WORKLOADS])
    if args.trace is not None and len(args.workload or []) != 1:
        parser.error("--trace needs exactly one --workload")

    if args.trace is not None:
        kinds = ["traced" if args.trace else "timed"]
    else:
        kinds = ["traced"] if args.traced else ["timed", "traced"]
    results: Dict[str, Dict] = {}
    ok = True
    for name in args.workload or names:
        results[name] = {}
        for kind in kinds:
            if kind == "timed":
                result = timed_run(name, args.seed, args.seconds, 1.0, ROUNDS)
                catalogue = spec["end_to_end"]
            else:
                result = traced_run(name, args.seed, args.seconds, 1.0)
                catalogue = spec["per_layer"]
            results[name][kind] = result
            ok = ok and result["correct"]
            show(name, kind, result, catalogue)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "schema": 1, "seed": args.seed, "seconds": args.seconds,
                "workloads": results,
            }, fh, indent=1, allow_nan=False)
    if args.trace is not None:
        (result,) = [r[kinds[0]] for r in results.values()]
        catalogue = spec["end_to_end" if args.trace == 0 else "per_layer"]
        print(machine_line(result, catalogue))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
