"""Seeded, deterministic fault injection for the collection pipeline.

Chaos that reproduces: a :class:`FaultPlan` is a list of
:class:`FaultSpec` triggers -- *kill worker 1 after its 3rd batch*,
*corrupt the 2nd checkpoint write*, *truncate wire frame 5* -- that
the supervised :class:`~repro.collector.parallel.ParallelCollector`
and the :class:`~repro.service.server.CollectorServer` consult at
well-defined points.  Triggers are ordinal-based (per-worker message
counts, per-worker checkpoint counts, global frame counts), so the
same plan against the same workload fires at the same points every
run -- the property that lets the ``fault`` axis of
``tests/equivalence.py`` assert *bit-identical* recovery rather than
"it didn't crash".

Every fired fault is appended to :attr:`FaultPlan.fired` as a
``(kind, where, ordinal)`` tuple, so tests assert the fault actually
happened (a chaos test whose fault silently never fired proves
nothing).  Plans are stateful (fire-once bookkeeping, ordinal
counters): build a fresh plan -- or :meth:`FaultPlan.reset` -- per
run.

The fault vocabulary:

========================  =================================================
``kill_worker(w, at)``    SIGKILL worker ``w`` right after its ``at``-th
                          message is piped (it may die mid-fold).
``wedge_worker(w, at)``   SIGSTOP worker ``w`` after its ``at``-th message:
                          alive but not reading -- the supervisor's wedge
                          timeout, not its death sentinel, must catch it.
``drop_checkpoint(w)``    The worker's ``at``-th checkpoint reply (or every
                          one, ``at=None``) vanishes, as if the write never
                          landed; the parent must keep the previous blob
                          *and* the journal.
``corrupt_checkpoint(w)`` Same, but the blob arrives truncated -- the
                          CRC/length check must reject it.
``corrupt_frame(at)``     Flip the first byte of the ``at``-th wire frame
                          (breaks the magic; the server counts
                          ``dropped_bad_frame``).
``truncate_frame(at)``    Deliver only the first half of the ``at``-th wire
                          frame (a torn datagram).
``drop_frame(at)``        The ``at``-th wire frame never arrives.
``stall_queue(at, s)``    The ingest thread sleeps ``s`` seconds before
                          folding its ``at``-th frame (backpressure window).
========================  =================================================
"""

from __future__ import annotations

import os
import random
import signal
from typing import List, Optional, Sequence, Tuple

#: Fault kinds grouped by the injection point that consumes them.
_WORKER_KINDS = ("kill", "wedge")
_CHECKPOINT_KINDS = ("drop_checkpoint", "corrupt_checkpoint")
_FRAME_KINDS = ("corrupt_frame", "truncate_frame", "drop_frame")


class FaultSpec:
    """One trigger: a fault kind plus where/when it fires.

    ``at`` is a 1-based ordinal in the kind's own domain (messages
    sent to that worker, checkpoints of that worker, frames seen by
    the server).  ``at=None`` means *every* occurrence -- only
    meaningful for the checkpoint/frame kinds; kill/wedge always fire
    once.
    """

    __slots__ = ("kind", "worker", "at", "seconds", "_spent")

    def __init__(self, kind: str, worker: Optional[int] = None,
                 at: Optional[int] = None, seconds: float = 0.0) -> None:
        self.kind = kind
        self.worker = worker
        self.at = at
        self.seconds = seconds
        self._spent = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"worker={self.worker}, " if self.worker is not None else ""
        return f"FaultSpec({self.kind!r}, {where}at={self.at})"

    def _matches(self, ordinal: int) -> bool:
        if self._spent:
            return False
        if self.at is None:
            return True  # recurring: never spent
        if ordinal == self.at:
            self._spent = True
            return True
        return False


def kill_worker(worker: int, at_batch: int) -> FaultSpec:
    """SIGKILL ``worker`` right after its ``at_batch``-th message."""
    return FaultSpec("kill", worker=worker, at=at_batch)


def wedge_worker(worker: int, at_batch: int) -> FaultSpec:
    """SIGSTOP ``worker`` after its ``at_batch``-th message."""
    return FaultSpec("wedge", worker=worker, at=at_batch)


def drop_checkpoint(worker: int, at: Optional[int] = None) -> FaultSpec:
    """Lose ``worker``'s ``at``-th checkpoint write (every one if None)."""
    return FaultSpec("drop_checkpoint", worker=worker, at=at)


def corrupt_checkpoint(worker: int, at: Optional[int] = None) -> FaultSpec:
    """Truncate ``worker``'s ``at``-th checkpoint blob mid-write."""
    return FaultSpec("corrupt_checkpoint", worker=worker, at=at)


def corrupt_frame(at: int) -> FaultSpec:
    """Flip the first byte of the ``at``-th wire frame."""
    return FaultSpec("corrupt_frame", at=at)


def truncate_frame(at: int) -> FaultSpec:
    """Deliver only half of the ``at``-th wire frame."""
    return FaultSpec("truncate_frame", at=at)


def drop_frame(at: int) -> FaultSpec:
    """The ``at``-th wire frame never arrives."""
    return FaultSpec("drop_frame", at=at)


def stall_queue(at: int, seconds: float) -> FaultSpec:
    """Sleep ``seconds`` before folding the ``at``-th admitted frame."""
    return FaultSpec("stall_queue", at=at, seconds=seconds)


class FaultPlan:
    """A deterministic schedule of injected faults.

    Consumed by :class:`~repro.collector.parallel.ParallelCollector`
    (worker + checkpoint kinds) and :class:`~repro.service.server.
    CollectorServer` (frame + stall kinds); a plan may carry both and
    each consumer reads only its own domain.
    """

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.seed = seed
        self.specs: List[FaultSpec] = list(faults)
        #: Log of fired faults: ``(kind, where, ordinal)`` tuples in
        #: firing order -- the assertion surface for chaos tests.
        self.fired: List[Tuple[str, str, int]] = []
        self._frames_seen = 0
        self._frames_folded = 0

    @classmethod
    def chaos(cls, workers: int, max_batch: int, seed: int = 0,
              kills: int = 1) -> "FaultPlan":
        """A seeded random kill schedule (the chaos-harness entry).

        Picks ``kills`` distinct workers uniformly and a kill point
        uniformly in ``[1, max_batch]`` for each -- same seed, same
        schedule, every run.
        """
        if kills > workers:
            raise ValueError("kills must not exceed workers")
        rng = random.Random(seed)
        victims = rng.sample(range(workers), kills)
        return cls(
            [kill_worker(w, rng.randint(1, max_batch)) for w in victims],
            seed=seed,
        )

    def reset(self) -> None:
        """Rearm every trigger and clear the log (reuse across runs)."""
        for spec in self.specs:
            spec._spent = False
        self.fired = []
        self._frames_seen = 0
        self._frames_folded = 0

    # -- worker domain (ParallelCollector) ---------------------------------

    def worker_faults(self, worker: int, ordinal: int) -> List[FaultSpec]:
        """Kill/wedge specs due after ``worker``'s ``ordinal``-th message."""
        due = [
            s for s in self.specs
            if s.kind in _WORKER_KINDS and s.worker == worker
            and s._matches(ordinal)
        ]
        for s in due:
            self.fired.append((s.kind, f"worker={worker}", ordinal))
        return due

    def fire_worker_fault(self, spec: FaultSpec, pid: int) -> None:
        """Deliver one kill/wedge to a live worker process."""
        sig = signal.SIGKILL if spec.kind == "kill" else signal.SIGSTOP
        try:
            os.kill(pid, sig)
        except ProcessLookupError:  # pragma: no cover - already gone
            pass

    def checkpoint_fault(self, worker: int, ordinal: int) -> Optional[str]:
        """The fate of ``worker``'s ``ordinal``-th checkpoint write.

        Returns ``"drop"``, ``"corrupt"`` or None (write lands clean).
        """
        for s in self.specs:
            if s.kind in _CHECKPOINT_KINDS and s.worker == worker \
                    and s._matches(ordinal):
                action = (
                    "drop" if s.kind == "drop_checkpoint" else "corrupt"
                )
                self.fired.append((s.kind, f"worker={worker}", ordinal))
                return action
        return None

    # -- frame domain (CollectorServer) ------------------------------------

    def mutate_frame(self, data: bytes) -> Optional[bytes]:
        """Apply any frame fault to the next wire frame.

        Returns the (possibly mutated) bytes, or None when the frame
        is dropped outright.  Counts every frame it sees, so ordinals
        are per-server-lifetime.
        """
        self._frames_seen += 1
        ordinal = self._frames_seen
        for s in self.specs:
            if s.kind not in _FRAME_KINDS or not s._matches(ordinal):
                continue
            self.fired.append((s.kind, "frame", ordinal))
            if s.kind == "drop_frame":
                return None
            if s.kind == "truncate_frame":
                return data[: max(1, len(data) // 2)]
            # corrupt_frame: break the magic so the server *counts*
            # the corruption instead of silently folding wrong data.
            return bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    def stall_seconds(self) -> float:
        """Pre-fold stall for the next admitted frame (0.0 = none)."""
        self._frames_folded += 1
        ordinal = self._frames_folded
        for s in self.specs:
            if s.kind == "stall_queue" and s._matches(ordinal):
                self.fired.append((s.kind, "queue", ordinal))
                return s.seconds
        return 0.0


__all__ = [
    "FaultPlan",
    "FaultSpec",
    "corrupt_checkpoint",
    "corrupt_frame",
    "drop_checkpoint",
    "drop_frame",
    "kill_worker",
    "stall_queue",
    "truncate_frame",
    "wedge_worker",
]
