"""Replay under an unreliable network: loss, bursts, reorder, duplicates.

PINT's headline robustness claim is that any subset of delivered
packets still decodes (every packet re-draws its role by a hash of its
own id), so accuracy degrades *gracefully* with loss instead of
falling off a cliff.  This demo makes the claim visible:

1. replay one scenario over a perfect network,
2. replay the same trace through composed impairment models -- bursty
   Gilbert-Elliott loss, bounded reordering, duplication,
3. sweep i.i.d. loss 0..50% and print the degradation curve,
4. show a per-flow partial decode (coverage + known hops) under loss.

Run:  PYTHONPATH=src python examples/lossy_replay.py
"""

from repro.replay import (
    Duplicate,
    GilbertElliott,
    IIDLoss,
    ReplayDriver,
    Reorder,
    build_trace,
)

PACKETS = 6_000
SEED = 7


def replay(trace, models=()):
    """One driver per network: the impairments are its configuration."""
    return ReplayDriver(
        batch_size=2048, seed=SEED, impairments=models,
    ).replay(trace)


def main() -> None:
    trace = build_trace("web-search", packets=PACKETS, seed=SEED)

    print("== perfect network ==")
    print(replay(trace).summary())

    print("\n== impaired network (burst loss + reorder + duplicates) ==")
    impaired = replay(trace, [
        GilbertElliott(p_bad=0.02, p_good=0.2, seed=SEED + 1),
        Reorder(depth=48, prob=0.5, seed=SEED + 2),
        Duplicate(0.03, lag=16, seed=SEED + 3),
    ])
    print(impaired.summary())
    print(f"   models: {', '.join(impaired.impairments)}")
    print(f"   {impaired.path_completed_under_loss} flows decoded fully "
          "despite losing packets")

    print("\n== graceful degradation: i.i.d. loss sweep ==")
    print(f"{'loss':>6} {'delivered':>10} {'decoded':>10} {'coverage':>9}")
    for rate in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        models = [IIDLoss(rate, seed=SEED + 4)] if rate else []
        r = replay(trace, models)
        print(f"{rate * 100:5.0f}% {r.records:>10} "
              f"{r.path_decoded:>5}/{r.path_flows:<4} "
              f"{r.path_coverage_mean * 100:8.1f}%")

    print("\n== partial decode under heavy loss ==")
    # Keep the clean trace, push loss through a delivery schedule,
    # then inspect one flow's partial answer via the collector
    # consumer API.
    from repro.collector import Collector, path_consumer_factory
    from repro.replay import TraceDataplane, plan_delivery
    import numpy as np

    heavy = plan_delivery([IIDLoss(0.9, seed=SEED + 5)], len(trace),
                          trace.flow_id)
    dataplane = TraceDataplane(trace, seed=SEED)
    digests = dataplane.encode_rows(np.arange(len(trace)))
    sink = Collector(path_consumer_factory(trace.universe, seed=SEED),
                     num_shards=4, seed=SEED)
    sink.ingest_batch(trace.flow_id[heavy], trace.pid[heavy],
                      trace.hop_counts[heavy], digests[heavy])
    snap = sink.snapshot()
    print(f"90% loss: {snap.flows} flows alive, mean coverage "
          f"{snap.mean_coverage * 100:.1f}%")
    answers = sink.answers()
    known, k = answers.columns["known"], answers.columns["k"]
    shown = answers.flow_id[(known > 0) & (known < k)][:3].tolist()
    for fid, consumer in zip(shown, sink.flows(shown)):
        print(f"  flow {fid}: coverage {consumer.coverage * 100:.0f}% "
              f"partial path {consumer.partial_path()}")


if __name__ == "__main__":
    main()
