"""Accuracy degradation under network impairment: the loss sweep.

The decode-vs-loss curve, which ``bench/`` does not chart (that
zero-rate models are the exact identity is the ``models`` axis of
``tests/equivalence.py``): sweeping i.i.d. loss from 0% to 50% across
the three digest representations ({raw, hash, fragment}, paper §4.2)
reproduces the headline robustness property -- any subset of delivered
packets still decodes, so decode success falls *smoothly* with delivery
rate: monotone-ish, with no cliff-to-zero before 50% loss for the
hash/fragment digests.

The full run also charts bursty (Gilbert-Elliott) loss and a
reorder+duplication pipeline next to the i.i.d. rows, so the curve
covers every model the engine ships.

Writes machine-readable ``BENCH_impair.json``.

Run:  PYTHONPATH=src python benchmarks/bench_impairment_sweep.py
      (--quick for a small run)
"""

from __future__ import annotations

import argparse

from benchlib import write_bench_json
from repro.replay import (
    Duplicate,
    GilbertElliott,
    IIDLoss,
    ReplayDriver,
    Reorder,
)

#: Digest-width configuration per representation: fragment uses b=4 so
#: switch IDs split into >= 2 fragments (b=8 would make fragmentation
#: degenerate into raw on these universes).
MODES = {"hash": 8, "raw": 8, "fragment": 4}


def sweep_cell(
    scenario: str,
    mode: str,
    models: list,
    packets: int,
    batch: int,
    seed: int,
) -> dict:
    """One (scenario, mode, impairment) replay; JSON-ready row."""
    driver = ReplayDriver(
        batch_size=batch, seed=seed, mode=mode,
        digest_bits=MODES[mode], impairments=models,
    )
    report = driver.run_scenario(scenario, packets=packets, seed=seed)
    d = report.as_dict()
    return {
        k: d[k] for k in (
            "records", "offered_records", "dropped_records",
            "duplicated_records", "reordered_records", "delivery_rate",
            "path_flows", "path_decoded", "path_correct",
            "path_completed_under_loss", "path_coverage_mean",
            "path_coverage", "path_accuracy", "impairments",
        )
    }


def decoded_fraction(cell: dict) -> float:
    """Decode success: fully-decoded path flows over offered ones."""
    return cell["path_decoded"] / cell["path_flows"] if cell["path_flows"] else 0.0


def run_sweep(args) -> dict:
    """Loss sweep x modes x scenarios, with the degradation gates."""
    results: dict = {}
    for scenario in args.scenarios:
        results[scenario] = {}
        for mode in MODES:
            rows = {}
            print(f"\n{scenario} / {mode} (b={MODES[mode]}):")
            for rate in args.rates:
                models = (
                    [IIDLoss(rate, seed=args.seed + 11)] if rate else []
                )
                cell = sweep_cell(
                    scenario, mode, models, args.packets, args.batch,
                    args.seed,
                )
                rows[f"loss_{int(round(rate * 100)):02d}"] = cell
                cov = cell["path_coverage_mean"]
                cov_s = f"{cov:.3f}" if cov is not None else "n/a"
                print(
                    f"  loss {rate * 100:4.0f}%  delivered "
                    f"{cell['records']:>6}  decoded "
                    f"{cell['path_decoded']:>4}/{cell['path_flows']:<4}"
                    f"  coverage {cov_s}"
                )
            results[scenario][mode] = rows

            # Gate 1: monotone-ish -- decode success never *rises* by
            # more than the noise slack as delivery drops.
            fracs = [
                decoded_fraction(rows[f"loss_{int(round(r * 100)):02d}"])
                for r in args.rates
            ]
            for i in range(1, len(fracs)):
                assert fracs[i] <= max(fracs[:i]) + 0.1, (
                    f"{scenario}/{mode}: decode success not monotone-ish "
                    f"in delivery rate: {fracs}"
                )
            # Gate 2: graceful, not a cliff -- hash/fragment digests
            # keep decoding real path state all the way to 50% loss.
            if mode in ("hash", "fragment"):
                for r in args.rates:
                    cell = rows[f"loss_{int(round(r * 100)):02d}"]
                    cov = cell["path_coverage_mean"]
                    assert cell["path_decoded"] > 0 and (
                        cov is not None and cov > 0.25
                    ), (
                        f"{scenario}/{mode}: decode cliff at "
                        f"{r * 100:.0f}% loss (decoded "
                        f"{cell['path_decoded']}, coverage {cov})"
                    )
    return results


def run_extra_models(args) -> dict:
    """Bursty loss and reorder+duplication rows (charted, no gate)."""
    extras = {
        "bursty_ge": [
            GilbertElliott(p_bad=0.015, p_good=0.125, loss_bad=0.9,
                           seed=args.seed + 21),
        ],
        "reorder_dup": [
            Reorder(depth=64, prob=0.5, seed=args.seed + 22),
            Duplicate(0.05, lag=16, seed=args.seed + 23),
        ],
        "burst_reorder_dup": [
            GilbertElliott(p_bad=0.01, p_good=0.2, seed=args.seed + 24),
            Reorder(depth=32, seed=args.seed + 25),
            Duplicate(0.02, seed=args.seed + 26),
        ],
    }
    out = {}
    scenario = args.scenarios[0]
    print(f"\ncomposed pipelines on {scenario} (hash):")
    for label, models in extras.items():
        cell = sweep_cell(
            scenario, "hash", models, args.packets, args.batch, args.seed
        )
        out[label] = cell
        print(
            f"  {label:<18} delivered {cell['records']:>6} "
            f"(-{cell['dropped_records']} +{cell['duplicated_records']} "
            f"~{cell['reordered_records']})  decoded "
            f"{cell['path_decoded']}/{cell['path_flows']}"
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=40_000,
                        help="records per scenario trace")
    parser.add_argument("--batch", type=int, default=8192,
                        help="columnar batch size")
    parser.add_argument("--scenarios", nargs="+",
                        default=["web-search", "incast", "isp-long-paths"],
                        help="scenarios swept (first also runs the "
                        "composed pipelines)")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                        help="i.i.d. loss rates swept (0..0.5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default="BENCH_impair.json",
                        help="output path for the machine-readable results")
    parser.add_argument("--quick", action="store_true",
                        help="small run")
    args = parser.parse_args()
    if args.quick:
        args.packets = min(args.packets, 8_000)
        args.scenarios = args.scenarios[:2]
        args.rates = [0.0, 0.25, 0.5]

    sweep = run_sweep(args)
    extras = run_extra_models(args)

    payload = {
        "benchmark": "impairment_sweep",
        "packets": args.packets,
        "batch": args.batch,
        "seed": args.seed,
        "rates": args.rates,
        "modes": {m: {"digest_bits": b} for m, b in MODES.items()},
        "sweep": sweep,
        "composed": extras,
    }
    write_bench_json(args.json, payload)

    print("\nOK: decode success degrades gracefully to 50% loss "
          "(no cliff for hash/fragment)")


if __name__ == "__main__":
    main()
