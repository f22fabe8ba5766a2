"""Live terminal view of a running collector: ``python -m repro.obs watch``.

Polls a :class:`~repro.service.query.QueryServer` port (``snapshot``,
``stats`` and ``metrics`` verbs) on a fixed interval, keeps the last N
samples in a fixed-size :class:`RingBuffer`, and redraws one compact
frame per poll: totals, the ingest rate derived from successive
snapshots, a sparkline of that rate over the ring's window, front-door
drop counters and -- when the server exposes a registry -- queue depth
and stage timings.

Everything time- and IO-shaped is injectable (``clock``, ``sleep``,
``out``), so the tests drive a full watch session against an
in-process query server in milliseconds and assert the rendered
frames; the CLI wires in the real clock and stdout.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional

from repro.service.query import QueryClient, QueryError

__all__ = ["RingBuffer", "Watcher", "sparkline", "watch"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


class RingBuffer:
    """Fixed-capacity overwrite-oldest sample history.

    A preallocated slot list plus a write cursor: append is O(1) with
    no reallocation ever, and iteration yields oldest -> newest.  The
    watch loop runs for hours against long-lived collectors; its
    memory must be a constant, not a function of uptime.
    """

    __slots__ = ("_slots", "_next", "_len")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._slots: List = [None] * capacity
        self._next = 0
        self._len = 0

    @property
    def capacity(self) -> int:
        return len(self._slots)

    def append(self, item) -> None:
        self._slots[self._next] = item
        self._next = (self._next + 1) % len(self._slots)
        if self._len < len(self._slots):
            self._len += 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        cap = len(self._slots)
        start = (self._next - self._len) % cap
        for i in range(self._len):
            yield self._slots[(start + i) % cap]

    def latest(self):
        if not self._len:
            raise IndexError("ring buffer is empty")
        return self._slots[(self._next - 1) % len(self._slots)]

    def oldest(self):
        if not self._len:
            raise IndexError("ring buffer is empty")
        return self._slots[(self._next - self._len) % len(self._slots)]


def sparkline(values, width: int = 32) -> str:
    """Block-character trend of the last ``width`` values (0-scaled)."""
    vals = list(values)[-width:]
    if not vals:
        return ""
    top = max(vals)
    if top <= 0:
        return _BLOCKS[0] * len(vals)
    out = []
    for v in vals:
        idx = int(round(v / top * (len(_BLOCKS) - 1)))
        out.append(_BLOCKS[max(0, min(idx, len(_BLOCKS) - 1))])
    return "".join(out)


def _fmt_count(n: float) -> str:
    for div, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(n) >= div:
            return f"{n / div:.1f}{suffix}"
    return f"{n:,.0f}"


class Watcher:
    """One watch session: poll, remember, render.

    Split from the CLI so tests (and other tools) can run the loop
    against any query port with fake time.  ``history`` is the ring
    capacity -- the rate window and the sparkline both read from it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        interval: float = 1.0,
        history: int = 60,
        out=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        clear: Optional[bool] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.host = host
        self.port = port
        self.interval = interval
        self.ring = RingBuffer(history)
        self.out = out if out is not None else sys.stdout
        self.clock = clock
        self.sleep = sleep
        if clear is None:
            clear = bool(getattr(self.out, "isatty", lambda: False)())
        self.clear = clear

    # -- polling -----------------------------------------------------------

    def poll(self, client: QueryClient) -> dict:
        """One sample: snapshot always; stats/metrics when served."""
        sample = {"t": self.clock(), "snapshot": client.snapshot()}
        for verb in ("stats", "metrics"):
            try:
                sample[verb] = client.request({"op": verb})[verb]
            except QueryError:
                sample[verb] = None  # bare collector: no front door
        self.ring.append(sample)
        return sample

    # -- derived views -----------------------------------------------------

    def rates(self) -> List[float]:
        """Ingest rate (rec/s) between each adjacent sample pair."""
        samples = list(self.ring)
        out = []
        for prev, cur in zip(samples, samples[1:]):
            dt = cur["t"] - prev["t"]
            dr = cur["snapshot"]["records"] - prev["snapshot"]["records"]
            out.append(dr / dt if dt > 0 else 0.0)
        return out

    def render(self) -> str:
        """One frame of the live view from the ring's current state."""
        sample = self.ring.latest()
        snap = sample["snapshot"]
        rates = self.rates()
        rate = rates[-1] if rates else 0.0
        lines = [
            f"repro.obs watch  {self.host}:{self.port}  "
            f"samples={len(self.ring)}/{self.ring.capacity} "
            f"interval={self.interval:g}s",
            "",
            f"  records   {_fmt_count(snap['records']):>10}    "
            f"flows     {_fmt_count(snap['flows']):>10}    "
            f"completed {_fmt_count(snap['completed_flows']):>10}",
            f"  evictions {_fmt_count(snap['evictions']):>10}    "
            f"state     {_fmt_count(snap['state_bytes']):>9}B    "
            f"completion{snap['completion_rate'] * 100:>9.1f}%",
            "",
            f"  ingest rate {rate:>12,.0f} rec/s  "
            f"{sparkline(rates)}",
        ]
        stats = sample.get("stats")
        if stats:
            lines.append(
                f"  wire: frames {_fmt_count(stats['frames_received'])}  "
                f"acks {_fmt_count(stats['acks_sent'])}  "
                f"dup {_fmt_count(stats['duplicate_frames'])}  "
                f"dropped q/ver/frame/win "
                f"{stats['dropped_queue_full']}/"
                f"{stats['dropped_bad_version']}/"
                f"{stats['dropped_bad_frame']}/"
                f"{stats['dropped_window']}"
            )
        metrics = sample.get("metrics")
        if metrics:
            lines.extend(self._metric_lines(metrics))
        return "\n".join(lines) + "\n"

    def _metric_lines(self, metrics: dict) -> List[str]:
        families = metrics.get("families", {})
        lines = []
        depth = families.get("pint_service_ingest_queue_depth")
        if depth and depth["samples"]:
            lines.append(
                "  queue depth "
                f"{depth['samples'][0]['value']:>12,.0f} frames"
            )
        # Per batch, not per span: one run of several batches enters
        # each stage a number of times that follows neither count.
        batches = families.get("pint_collector_batches_total")
        n = sum(s["value"] for s in batches["samples"]) if batches else 0
        parts = []
        for label in ("group", "consume"):
            fam = families.get(f"pint_collector_{label}_seconds")
            if fam and n:
                total = sum(s["sum"] for s in fam["samples"])
                parts.append(f"{label} {total / n * 1e3:.2f}ms/batch")
        if parts:
            lines.append("  stages: " + "  ".join(parts))
        return lines

    # -- the loop ----------------------------------------------------------

    def run(self, iterations: Optional[int] = None) -> int:
        """Poll-render until ``iterations`` (None = until interrupted).

        Returns the number of frames drawn; connection loss mid-watch
        prints a final line instead of a traceback (collectors do shut
        down while being watched).
        """
        frames = 0
        try:
            with QueryClient(self.host, self.port) as client:
                while iterations is None or frames < iterations:
                    if frames:
                        self.sleep(self.interval)
                    self.poll(client)
                    if self.clear:
                        self.out.write("\x1b[2J\x1b[H")
                    self.out.write(self.render())
                    self.out.flush()
                    frames += 1
        except KeyboardInterrupt:
            pass
        except (OSError, QueryError) as exc:
            self.out.write(f"watch: connection lost ({exc})\n")
        return frames


def watch(host: str, port: int, **kwargs) -> int:
    """Convenience wrapper: build a :class:`Watcher` and run it."""
    iterations = kwargs.pop("iterations", None)
    return Watcher(host, port, **kwargs).run(iterations=iterations)
