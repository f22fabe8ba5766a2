"""Path tracing on ISP topologies: PINT vs PPM vs AMS2 (paper §6.3).

Traces flows across the US Carrier stand-in topology (157 switches,
diameter 36) with a 1-bit, 4-bit, and 2x8-bit PINT and compares the
packets needed against the IP-traceback baselines.

Run:  python examples/path_tracing_isp.py
"""

import random

from repro.apps import PathTracer
from repro.baselines import AMSTraceback, PPMTraceback
from repro.net import us_carrier


def main(trials: int = 10) -> None:
    """``trials`` flows are traced per path length (fewer: a faster,
    noisier table)."""
    topo = us_carrier()
    print(f"topology: {topo.name}, {topo.num_switches} switches, "
          f"diameter {topo.diameter()}")

    rng = random.Random(7)
    lengths = [6, 16, 26, 36]

    print(f"\npackets to trace a flow's path (mean over {trials} flows):")
    header = ["scheme/bits"] + [f"k={k}" for k in lengths]
    print("  ".join(h.ljust(14) for h in header))

    paths = {}
    for k in lengths:
        src, dst = topo.pair_at_distance(k, rng)
        paths[k] = topo.switch_path(src, dst)

    for label, kwargs in [
        ("PINT 2x(b=8)", dict(digest_bits=8, num_hashes=2)),
        ("PINT b=4", dict(digest_bits=4)),
        ("PINT b=1", dict(digest_bits=1)),
    ]:
        tracer = PathTracer(topo, d=10, **kwargs)
        cells = []
        for k in lengths:
            stats = tracer.packets_for_path(paths[k], trials=trials)
            cells.append(f"{stats.mean:.0f}")
        print("  ".join(c.ljust(14) for c in [label] + cells))

    ppm = PPMTraceback()
    cells = [f"{ppm.trial_stats(k, trials=trials).mean:.0f}" for k in lengths]
    print("  ".join(c.ljust(14) for c in ["PPM (16b)"] + cells))

    for m in (5, 6):
        ams = AMSTraceback(topo.switch_universe(), m=m)
        cells = [
            f"{ams.trial_stats(paths[k], trials=trials).mean:.0f}"
            for k in lengths
        ]
        print("  ".join(c.ljust(14) for c in [f"AMS2 m={m} (16b)"] + cells))

    print("\nPINT with two 8-bit hashes uses the same 16-bit overhead as "
          "PPM/AMS2\nbut needs 1-2 orders of magnitude fewer packets.")


if __name__ == "__main__":
    main()
