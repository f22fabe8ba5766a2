"""Exception hierarchy for the PINT reproduction library."""

import threading
import traceback
from typing import List, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """Raised when a query, plan, or component is mis-configured."""


class BudgetError(ConfigurationError):
    """Raised when a set of queries cannot fit a global bit budget."""


class DecodingError(ReproError):
    """Raised when an inference module cannot decode the collected digests."""


class DecodeTimeoutError(DecodingError, RuntimeError):
    """Decoding did not converge within its packet/iteration budget.

    Raised by the traceback baselines (PPM, AMS) and the coding
    simulator when the inference loop exhausts ``max_packets`` without
    a complete answer.  Subclasses ``RuntimeError`` so callers that
    predate the typed error keep working; new code should catch
    :class:`DecodingError`.
    """


class SimulationError(ReproError):
    """Raised on inconsistent simulator state (a bug, not user error)."""


class CollectorClosedError(ReproError, RuntimeError):
    """Raised when ingesting into (or querying) a closed collector.

    Subclasses ``RuntimeError`` so callers that predate the typed
    error (and code treating a closed parallel collector as a generic
    runtime failure) keep working; new code should catch this class.
    Serial and parallel collectors raise the *same* type, so the
    drop-in parity DESIGN.md section 5 claims holds for the post-close
    contract too.
    """


class TopologyError(ReproError):
    """Raised for invalid topologies or unroutable node pairs."""


class RecoveryError(ReproError):
    """Raised when worker supervision cannot restore a failed worker.

    Carries the failing ``worker`` (and, where one is implicated, the
    ``shard``) so operators can tell *which* partition's state is at
    risk without parsing the message -- every recovery-surface error
    in :mod:`repro.collector.recovery` and :mod:`repro.collector.
    parallel` subclasses this.
    """

    def __init__(
        self,
        message: str,
        worker: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.shard = shard


class WorkerFailedError(RecoveryError, RuntimeError):
    """A collector worker process (or the service ingest thread) died
    or reported an unrecoverable error.

    Subclasses ``RuntimeError`` because the parallel collector raised
    plain ``RuntimeError`` for worker death before the typed hierarchy
    existed and callers catch it that way; new code should catch
    :class:`RecoveryError`.
    """


class CheckpointError(RecoveryError):
    """A checkpoint could not be decoded: truncated bytes, a bad
    magic, or a CRC mismatch (e.g. a worker died mid-write)."""


class CheckpointVersionError(CheckpointError):
    """A structurally valid checkpoint from a format version this
    build does not speak; ``version`` carries what was found."""

    def __init__(
        self,
        message: str,
        version: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> None:
        super().__init__(message, worker=worker)
        self.version = version


class RestoreError(RecoveryError):
    """A checkpoint decoded fine but could not be installed into a
    live collector (layout mismatch: shard count, clock mode, ...)."""


class DeferredFailures:
    """Failures of fire-and-forget work, held for the next sync point.

    A front door that takes batches without waiting (a parallel
    collector's worker, the service's ingest thread) cannot raise a
    batch's failure at its sender: it parks it here and raises it at
    the next barrier, so no error is silent past a ``drain()``.  The
    first :attr:`LIMIT` are kept whole -- fixing the first never hides
    that later batches failed differently -- and the rest counted.
    Parking and raising may run on two threads: both hold the lock.
    """

    LIMIT = 8

    def __init__(self, prefix: str) -> None:
        #: The owner's first line of every raised error.
        self.prefix = prefix
        self._lock = threading.Lock()
        self._texts: List[str] = []
        self._suppressed = 0

    def park(self, text: Optional[str] = None) -> None:
        """Keep one failure: ``text``, or the exception being handled."""
        with self._lock:
            if len(self._texts) < self.LIMIT:
                self._texts.append(text or traceback.format_exc())
            else:
                self._suppressed += 1

    def raise_pending(self) -> None:
        """Raise every parked failure as one :class:`WorkerFailedError`
        and empty the ledger (nothing to raise: return)."""
        with self._lock:
            texts, suppressed = self._texts, self._suppressed
            self._texts, self._suppressed = [], 0
        if suppressed:
            texts.append(
                f"... and {suppressed} further ingest failure(s) suppressed"
            )
        if texts:
            raise WorkerFailedError(f"{self.prefix}:\n" + "\n".join(texts))
