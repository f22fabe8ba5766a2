"""Real-time routing-loop detection (paper Appendix A.4, Algorithm 2).

Shows the digest-match trick catching a forwarding loop on the fly,
and measures the false-positive rate on loop-free paths for the two
configurations the paper discusses (b=15/T=1 and b=14/T=3).

Run:  python examples/loop_detection.py
"""

from repro.apps import LoopDetector


def main(packets: int = 1000, fp_packets: int = 20000) -> None:
    """``packets`` looping packets are run per configuration and
    ``fp_packets`` over the loop-free path (fewer: a faster, coarser
    estimate)."""
    # A packet caught in a loop: after switch 4 it returns to switch 2.
    loopy_route = [1, 2, 3, 4] + [2, 3, 4] * 10
    clean_route = list(range(1, 33))  # 32 distinct switches

    for bits, threshold in ((15, 1), (14, 3)):
        detector = LoopDetector(digest_bits=bits, threshold=threshold)
        detected = 0
        first_positions = []
        for pid in range(1, packets + 1):
            pos = detector.run_path(pid, loopy_route)
            if pos is not None:
                detected += 1
                first_positions.append(pos)
        fp_rate = detector.false_positive_rate(clean_route, fp_packets)
        avg_pos = (sum(first_positions) / len(first_positions)
                   if first_positions else float("nan"))
        print(f"b={bits}, T={threshold} "
              f"({detector.bit_overhead} bits/packet):")
        print(f"  looping packets flagged: {100 * detected / packets:.1f}% "
              f"(avg detection at hop {avg_pos:.0f})")
        print(f"  false positives on a loop-free 32-hop path: "
              f"{fp_rate:.2e} per packet\n")

    print("higher T trades detection latency (more loop cycles) for an\n"
          "exponentially lower false-report rate (paper: 5e-7 -> 5e-13).")


if __name__ == "__main__":
    main()
