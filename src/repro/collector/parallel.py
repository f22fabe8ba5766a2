"""Multi-process sharded collector: scatter batches across CPU cores.

PINT's sink state is embarrassingly partitionable by flow -- each flow
is an independent decoding problem, and the :class:`~repro.collector.
shard.ShardRouter` already assigns every flow's whole record stream to
one share-nothing shard.  :class:`ParallelCollector` takes that
partition across *process* boundaries: N worker processes each own a
subset of the shards (round-robin, ``shard_id % workers``) and run a
private single-process :class:`~repro.collector.collector.Collector`
over them, so decode work uses every core instead of one.  This is the
same partition-for-admission trade BASEL makes explicit (PAPERS.md):
the front door spends a little routing work to buy independent,
boundable back-end state.

Data flow::

      ingest_batch(columns)                 parent process
            │ ShardRouter.shard_of_array → worker = shard % N
            ▼
      scatter: one boolean mask per worker; sub-columns written
      into the worker's shared-memory ring -- one slot (zero-copy
      on the far side), or a run of continued slots when larger
            ▼
      worker w: takes every whole message waiting in its ring (at
      most RING_SLOTS, the one-slot views copied) and folds them as
      one run, Collector.ingest_run: one grouping and one peel for
      the run, each batch's clock, touches and shard counters its own
      (full shard layout, only owned shards ever fed)
            ▼
      queries: each a call on the worker's Collector, by name;
      answers() merges one AnswerTable per worker (columns, not
      decoders); flows() fetches whole consumers (state); snapshot()
      merges each worker's owned shards by shard_id

Equivalence: the parent ticks the same :class:`~repro.collector.
collector.IngestClock` a serial collector would and hands workers an
explicit ``now``, each worker re-runs the *same* stable grouping over
its sub-columns (sub-columns preserve batch order, and a flow's
records all land on one worker), and each shard sees exactly the
record stream it would have seen in-process.  A run of several
messages folds to the state of folding them one by one.  Merged
snapshots and per-flow query answers are therefore bit-identical to a
single-process collector fed the same batches -- the ``workers`` and
``ring`` axes of ``tests/equivalence.py``, across all replay scenarios.

Transport: the collector takes batches only.  Every record -- from
``ingest_batch`` or a journal replay, of any size -- travels one
per-worker :class:`~repro.collector.shm.ShmRing` shared-memory ring
and is folded by the worker's ``Collector``: one vectorised column
copy parent-side, zero-copy ``np.ndarray`` views worker-side for a
message that fits a slot, copied only when a later message joins its
run.  The duplex pipe carries only sync RPCs.
Workers are forked, so consumer factories may be closures (the idiom
throughout :mod:`repro.collector.consumers`).

Lifecycle: open or closed.  The constructor forks every worker before
it returns -- so build the collector before starting any thread, as
``ReplayDriver`` does before its wire server -- and a spawn that fails
part-way takes the workers already started down with it.  ``drain()``
barriers until every sent batch is applied; ``close()`` stops and
joins the workers.  The class is also a context manager.

Worker loss: every request goes through one send and every reply
through one wait, both watching the worker's pulse (pipe readiness in
short ticks + process sentinel + optional ``wedge_timeout``), as do
every full-ring push and the sweep at each ingest, so a dead or wedged
worker is always *noticed* in bounded time, even behind a request
larger than the pipe's buffer.  Each detection takes one step,
``_lose``: close the pipe, SIGKILL and reap the worker, keep the
reason; nothing talks to it again.  What happens next is policy, not a
second code path.  Without ``checkpoint_every`` every later call that
needs the worker raises :class:`~repro.exceptions.WorkerFailedError`
with that reason (the shard state is gone).  With it, every worker
serialises its full collector state into a versioned checkpoint blob on a message cadence
(:mod:`repro.collector.recovery`) and the parent journals every
message sent since the last accepted checkpoint in a bounded
:class:`~repro.collector.recovery.BatchJournal`, so the loss is
survivable: fork a replacement, restore the checkpoint, replay the
journal, re-issue the interrupted command.  A SIGKILL mid-batch takes
the partially-applied batch with it and the restore rewinds past it,
so every message lands exactly once *by reconstruction* and the
merged snapshot stays bit-identical to a fault-free run.  Only when
the journal window was exceeded (checkpointing itself kept failing)
does recovery degrade: the affected shards are marked ``degraded``
with records-lost accounting and the collector keeps serving.
Deterministic fault injection rides on
:class:`repro.faults.FaultPlan`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import struct
import time
import traceback
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler
from multiprocessing.util import Finalize
from typing import Dict, List, Optional

import numpy as np

from repro.collector.answers import AnswerTable
from repro.collector.collector import Collector, IngestClock
from repro.collector.consumers import (
    ConsumerFactory,
    DigestConsumer,
    StoreFactory,
)
from repro.collector.records import Column, admit_batch
from repro.collector.recovery import (
    BatchJournal,
    capture_checkpoint,
    restore_collector,
    validate_checkpoint,
)
from repro.collector.shard import ShardRouter
from repro.collector.shm import PeerGoneError, ShmRing
from repro.collector.snapshot import RecoveryStats, Snapshot
from repro.exceptions import (
    CheckpointError,
    CollectorClosedError,
    DeferredFailures,
    RecoveryError,
    WorkerFailedError,
)
from repro.grouping import distinct, sorted_distinct
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Pipe commands.  Data never travels the pipe: a data message is a
#: ``(fids, pids, hops, digs, t)`` batch -- the shape the
#: journal stores -- pushed into the worker's ring.  Every pipe
#: command is synchronous and gets exactly one ``("ok", value)`` or
#: ``("err", message)`` reply; the worker folds its whole ring backlog
#: before answering, so a sync reply proves all earlier data was
#: applied -- that is the whole drain protocol.  ``(_CALL, name,
#: *args)`` calls a method of the worker's :class:`Collector` and
#: replies with its value: every query and operation (``"answers"``,
#: ``"flows"``, ``"snapshot"``, ``"expire"``, ``"evict"``, ``"drain"``,
#: ``"__len__"``) is the serial collector's own.  ``_CHECKPOINT``
#: replies with the worker's framed state blob; ``_DEGRADE`` installs
#: unreplayable-loss marks after a journal-window overrun; ``_STOP``
#: replies and ends the worker.
_CALL, _CHECKPOINT, _DEGRADE, _STOP = range(4)

#: Per-worker restart budget of a supervised collector: one more loss
#: raises :class:`~repro.exceptions.RecoveryError` (a worker dying in
#: a tight loop is a bug, not an outage to paper over).
MAX_RESTARTS = 8

#: Every worker ring's slots and records per slot (checked by
#: :meth:`ShmRing.create`): one slot holds a worker's share of any
#: replay batch, so a message is copied out only when a run needs it.
RING_SLOTS = 8
RING_RECORDS = 16384


def check_settings(
    workers: Optional[int],
    num_shards: int,
    checkpoint_every: Optional[int] = None,
    journal_batches: Optional[int] = None,
    faults=None,
) -> None:
    """The settings rules of a parallel sink, for every caller that
    builds one (``workers=None``: a serial sink, whose supervision
    settings must still agree with each other)."""
    for name, value in (
        ("workers", workers), ("checkpoint_every", checkpoint_every),
        ("journal_batches", journal_batches),
    ):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1")
    if checkpoint_every is None and (
        journal_batches is not None or faults is not None
    ):
        raise ValueError(
            "journal_batches/faults require checkpoint_every "
            "(supervision): without checkpoints there is nothing "
            "to recover a worker to"
        )
    if workers is not None and workers > num_shards:
        raise ValueError(
            f"workers ({workers}) must not exceed num_shards "
            f"({num_shards}): a worker with no shard never sees a "
            "record"
        )


class _WorkerDied(RuntimeError):
    """Internal: a worker was lost (died or wedged; see
    :meth:`ParallelCollector._lose`).

    Distinct from the ``("err", ...)`` application replies on purpose:
    an app error is the *worker telling us* something went wrong
    (state intact, not recoverable by restart), while this is the
    worker going silent -- exactly the condition checkpoint/journal
    recovery exists for.
    """


def _worker_main(
    conn,
    consumer_factory: ConsumerFactory,
    num_shards: int,
    max_flows_per_shard: Optional[int],
    ttl: Optional[float],
    seed: int,
    worker_id: int,
    obs_enabled: bool,
    applied,
    obs_labels: dict,
    restore: Optional[bytes],
    ring_spec: tuple,
) -> None:
    """One worker: a private Collector fed by a ring, asked by a pipe.

    The worker builds the *full* shard layout (same seed, same shard
    ids) but is only ever fed records of the shards it owns, so the
    others stay empty and cost nothing.  Keeping global shard ids
    means every table operation -- grouping, a bounded sink's
    admission walk, TTL sweep -- runs exactly as it would in a
    single-process collector, and every query is that collector's
    own method, called by name (``_CALL``); the parent keeps a
    snapshot's owned shards and drops the empty rest.

    A fire-and-forget batch's failure is parked in a
    :class:`DeferredFailures` ledger and is the next sync reply.

    Observability: with ``obs_enabled`` the worker runs its private
    collector over a private :class:`MetricsRegistry` labelled
    ``{"worker": str(worker_id)}``; the registry dump rides back on
    every snapshot (live registries never cross the pipe) and
    :meth:`Snapshot.merged` folds the per-worker families.  ``applied``
    is a lock-free shared counter bumped by the messages of every run
    folded -- the parent's backlog gauge reads it without a
    barrier, which a pipe RPC could never do (the RPC reply itself
    drains the backlog it would be measuring).

    ``restore`` is a framed checkpoint blob (already CRC-validated by
    the parent): a replacement worker installs it before reading a
    single pipe message, so the journal the parent replays next lands
    on exactly the state the checkpoint captured.  A restore failure
    is deliberately fatal -- serving queries off half-installed state
    would be worse than dying again (the parent's :data:`MAX_RESTARTS`
    bounds the retry storm).

    ``ring_spec`` attaches the worker to its shared-memory ring, the
    only carrier of data.  The worker folds ring messages eagerly --
    all the whole ones waiting, up to a ring's worth, as one run -- and
    polls the pipe only when no whole message is ready; a sync command
    is held until the ring is empty again, which is what makes "a sync
    reply proves all earlier data was applied" true (the parent sent
    the command *after* those pushes, and its pipe write fences the
    shared-memory stores).
    """
    obs = MetricsRegistry() if obs_enabled else None
    col = Collector(
        consumer_factory,
        num_shards=num_shards,
        max_flows_per_shard=max_flows_per_shard,
        ttl=ttl,
        seed=seed,
        obs=obs,
        obs_labels={**obs_labels, "worker": str(worker_id)},
    )
    if restore is not None:
        restore_collector(col, restore, worker=worker_id)
    failures = DeferredFailures("deferred ingest failure(s) in worker")

    def fold(data) -> None:
        """Fold ``data`` and every whole message behind it as one run.

        Takes at most a ring's worth of messages: the single-slot
        zero-copy views of each are copied before the next ``take()``
        releases them, so a run holds at most one ring's bytes.
        """
        run = [(data.columns, data.t)]
        while len(run) < ring.slots:
            columns, t = run[-1]
            run[-1] = (tuple(column.copy() for column in columns), t)
            data = ring.take()
            if data is None:
                break
            run.append((data.columns, data.t))
        try:
            col.ingest_run(run, failures.park)
        except Exception:
            failures.park()
        finally:
            # Count attempts, not successes: the parent's sent
            # counter has no idea a batch failed, and the backlog
            # gauge must return to zero either way.
            applied.value += len(run)

    ring = ShmRing.attach(*ring_spec)
    #: A sync command read off the pipe, held until the ring is empty.
    held: Optional[tuple] = None
    while True:
        # No name may outlive the loop bound to a slot view: close()
        # cannot unmap a segment with views still exported.
        data = ring.take()
        if data is not None:
            fold(data)
            data = None
            continue
        if held is None:
            try:
                # Mid-message the parent is still pushing and has no
                # command to send yet: look at the ring again at once.
                if conn.poll(0 if ring.mid_message else 0.001):
                    # Every data message the parent pushed before this
                    # command is already published to the ring (the
                    # pipe write fences the shared-memory stores), so
                    # one more pass over the ring before answering is
                    # the drain protocol.
                    held = conn.recv()
            except (EOFError, OSError):
                break
            continue
        msg, held = held, None
        op = msg[0]
        try:
            # Parked batch failures ride the next sync reply -- the
            # stop reply included: it is the last chance to surface
            # them before they die with the worker.
            failures.raise_pending()
            reply = None
            if op == _CALL:
                reply = getattr(col, msg[1])(*msg[2:])
            elif op == _CHECKPOINT:
                # Sync, so it queues behind every in-flight batch: the
                # blob always covers everything the parent sent before
                # asking -- the property that lets a checkpoint ACK
                # clear the journal.
                reply = capture_checkpoint(
                    col,
                    metrics=obs.as_dict() if obs is not None else None,
                    worker=worker_id,
                )
            elif op == _DEGRADE:
                # Journal-window overrun: the parent could not replay
                # these records; pin the loss to the shards that owned
                # them so snapshots report it honestly.
                for sid, lost in msg[1].items():
                    col.shards[sid].mark_degraded(lost)
            elif op != _STOP:
                raise ValueError(f"unknown collector worker op {op!r}")
            conn.send(("ok", reply))
        except Exception:
            conn.send(("err", traceback.format_exc()))
        if op == _STOP:
            break
    ring.close()
    conn.close()


def _kill_and_reap(procs: List) -> None:
    """SIGKILL and reap ``procs`` (a no-op on reaped ones): the process
    half of a worker's loss, which a SIGSTOPped worker cannot ignore.

    Every collector also registers this at interpreter exit
    (:class:`multiprocessing.util.Finalize`, exit priority 0), ahead of
    multiprocessing's own exit hook, which SIGTERMs its daemonic
    children and joins each one with no timeout: a stopped worker
    never acts on the SIGTERM, so that join would wait forever.
    """
    for proc in procs:
        proc.kill()
        proc.join(timeout=5.0)


class ParallelCollector:
    """Scatter-by-shard multi-process front door over N Collectors.

    Drop-in for :class:`Collector` at the service surface -- same
    ``ingest_batch``, query, expiry and snapshot methods, same
    clock-mode guard -- with ingestion and decode spread across worker
    processes, which the constructor starts.  Use
    it when per-record decode work (path peeling, sketch updates)
    dominates; for trivially cheap consumers the scatter (one routing
    hash and one column copy per batch) costs more than the workers
    buy back (see DESIGN.md section 5).

    Parameters
    ----------
    consumer_factory, num_shards, max_flows_per_shard, ttl, seed:
        Exactly as :class:`Collector`; the resulting state is
        bit-identical to a serial collector built from the same values.
    workers:
        Worker process count; shards are assigned round-robin
        (``shard_id % workers``), so ``workers`` must not exceed
        ``num_shards`` (an idle worker would own nothing).  Each
        worker's ring has the module's :data:`RING_SLOTS` x
        :data:`RING_RECORDS` geometry.
    obs:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  The
        parent registers scatter/drain spans, per-worker sent-batch
        counters and a live ``pint_parallel_worker_backlog`` gauge
        (sent minus applied, via a shared counter each worker bumps);
        each worker additionally runs its private collector over its
        own registry labelled ``{"worker": str(w)}``, merged into
        every :meth:`snapshot`.  Omitted, all of it is no-op.
    checkpoint_every:
        Enables supervision: each worker is checkpointed after every
        ``checkpoint_every`` fire-and-forget messages, the parent
        journals un-checkpointed messages, and a lost worker is
        replaced (restore + replay) instead of raised, at most
        :data:`MAX_RESTARTS` times per worker.  ``None`` (default)
        raises :class:`~repro.exceptions.WorkerFailedError` when a
        worker is lost.
    journal_batches:
        Per-worker journal capacity in messages; defaults to
        ``4 * checkpoint_every``.  With capacity >= ``checkpoint_every``
        the journal never evicts while checkpointing is healthy (the
        window arithmetic in DESIGN.md section 9); an undersized
        journal trades memory for degraded recovery: an overflow marks
        the shards it touched degraded and counts the records lost.
    faults:
        Optional :class:`repro.faults.FaultPlan`; the supervisor fires
        its kill/wedge specs after the matching sends and applies its
        checkpoint specs to checkpoint replies (chaos testing).
    wedge_timeout:
        Seconds a *live* worker may leave a sync request untaken or
        unanswered, or a full ring undrained, before it is declared
        wedged and handled like a dead one (SIGSTOP survival when
        supervised, a bounded
        :class:`~repro.exceptions.WorkerFailedError` when not).
        ``None`` disables wedge detection -- death detection alone.
    """

    def __init__(
        self,
        consumer_factory: ConsumerFactory,
        workers: int = 4,
        num_shards: int = 8,
        max_flows_per_shard: Optional[int] = None,
        ttl: Optional[float] = None,
        seed: int = 0,
        # Accepted only because bench/stageloop.py:148 (frozen) passes
        # it; delete with that call in the next benchmark PR.
        transport: str = "shm",
        obs=None,
        obs_labels: Optional[dict] = None,
        checkpoint_every: Optional[int] = None,
        journal_batches: Optional[int] = None,
        faults=None,
        wedge_timeout: Optional[float] = None,
    ) -> None:
        check_settings(
            workers, num_shards, checkpoint_every, journal_batches, faults
        )
        if transport != "shm":
            raise ValueError(
                f"transport must be 'shm', got {transport!r}: the pipe "
                "data plane was removed in PR 14 (the ring is the only "
                "carrier of batch data)"
            )
        self.workers = workers
        self.num_shards = num_shards
        self.router = ShardRouter(num_shards, seed)
        self._spec = (
            consumer_factory, num_shards, max_flows_per_shard, ttl, seed,
        )
        #: The workers' front-door code width, checked here so that no
        #: worker folds part of a batch another one refuses.
        self._code_bits = (
            consumer_factory.store.code_bits
            if isinstance(consumer_factory, StoreFactory) else None
        )
        self._ctx = mp.get_context("fork")
        #: One ShmRing per worker, created with it.
        self._rings: List[ShmRing] = []
        self.clock = IngestClock()
        self._conns: List = []
        self._procs: List = []
        Finalize(self, _kill_and_reap, args=(self._procs,), exitpriority=0)
        #: The one lifecycle flag: open (workers up) until close().
        self._closed = False
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._obs_labels = dict(obs_labels) if obs_labels else {}
        #: Fire-and-forget messages sent per worker (parent side) and
        #: the matching worker-side applied counters (shared memory,
        #: created with each worker and read after it is gone).  Their
        #: difference is the live backlog.
        self._sent: List[int] = [0] * workers
        self._applied: List = []
        #: Why each worker was lost (:meth:`_lose`); None while healthy.
        self._lost: List[Optional[str]] = [None] * workers
        # -- supervision state (journal/checkpoint parts inert when
        # checkpoint_every=None; wedge_timeout applies either way) --
        self._checkpoint_every = checkpoint_every
        self._journal_batches = (
            journal_batches if journal_batches is not None
            else (4 * checkpoint_every if checkpoint_every else None)
        )
        self._faults = faults
        self._wedge_timeout = wedge_timeout
        self._journals: List[BatchJournal] = (
            [BatchJournal(self._journal_batches) for _ in range(workers)]
            if checkpoint_every is not None else []
        )
        #: Last *validated* checkpoint blob per worker (None until the
        #: first ACK: recovery then restores-from-empty and replays the
        #: full journal).
        self._checkpoints: List[Optional[bytes]] = [None] * workers
        self._restarts: List[int] = [0] * workers
        self._msgs_since_ckpt: List[int] = [0] * workers
        self._ckpt_ordinal: List[int] = [0] * workers
        #: Cumulative supervision counters (the RecoveryStats source);
        #: journal_dropped_* accrue at eviction time and are never
        #: cleared -- they count *potential*-loss events, while actual
        #: loss lives on the shards' degraded marks.
        self._rec: Dict[str, int] = {
            "restarts": 0,
            "checkpoints_taken": 0,
            "checkpoints_rejected": 0,
            "replayed_batches": 0,
            "replayed_records": 0,
            "journal_dropped_batches": 0,
            "journal_dropped_records": 0,
        }
        try:
            for w in range(workers):
                conn, proc, ring, applied = self._spawn(w, None, 0)
                self._conns.append(conn)
                self._procs.append(proc)
                self._rings.append(ring)
                self._applied.append(applied)
            self._init_obs()
        except BaseException:
            self._kill_all()
            raise

    @property
    def _supervised(self) -> bool:
        return self._checkpoint_every is not None

    def _init_obs(self) -> None:
        obs = self.obs
        base = self._obs_labels
        self._sp_scatter = obs.span(
            "pint_parallel_scatter_seconds",
            "Time routing + pushing one batch into the worker rings.",
            labels=base,
        )
        self._sp_drain = obs.span(
            "pint_parallel_drain_seconds",
            "Time blocked in drain barriers (slowest worker's backlog).",
            labels=base,
        )
        self._sp_answers = obs.span(
            "pint_collector_answers_seconds",
            "Time in answers(): building (across workers: gathering and "
            "merging) the sink's AnswerTable -- the read-out cost.",
            labels=base,
        )
        self._m_answer_rows = obs.counter(
            "pint_collector_answer_rows_total",
            "Flow rows returned by answers()",
            labels=base,
        )
        for w in range(self.workers):
            labels = {**base, "worker": str(w)}
            obs.counter(
                "pint_parallel_batches_sent_total",
                "Fire-and-forget messages scattered to this worker.",
                labels=labels,
            ).set_function(lambda w=w: self._sent[w])
            obs.gauge(
                "pint_parallel_worker_backlog",
                "Messages sent to this worker and not yet applied.",
                labels=labels,
            ).set_function(
                lambda w=w: self._sent[w] - self._applied[w].value
            )
            obs.counter(
                "pint_parallel_worker_restarts_total",
                "Times this worker was replaced by the supervisor.",
                labels=labels,
            ).set_function(lambda w=w: self._restarts[w])
            obs.gauge(
                "pint_parallel_ring_occupancy",
                "Slots published to this worker's shm ring and not "
                "yet consumed.",
                labels=labels,
            ).set_function(
                lambda w=w: 0 if self._closed else self._rings[w].occupancy()
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ParallelCollector":
        """This collector, whose workers started with it (for ``with``)."""
        self._check_open()
        return self

    def _spawn(self, w: int, restore: Optional[bytes], applied: int):
        """Fork worker ``w`` behind a fresh pipe and a fresh ring.

        The one place a worker process is created -- in the
        constructor and again by :meth:`_recover_worker`, which passes
        the checkpoint to ``restore`` and the applied-counter value
        the backlog gauge should resume from.  Returns ``(conn,
        process, ring, applied counter)`` for the caller to install; a
        fork that fails unlinks the fresh ring before raising.
        """
        ring = ShmRing.create(RING_SLOTS, RING_RECORDS)
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            counter = self._ctx.Value("L", applied, lock=False)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    child_conn, *self._spec, w, self.obs.enabled, counter,
                    self._obs_labels, restore, ring.spec(),
                ),
                daemon=True,
                name=f"collector-worker-{w}",
            )
            proc.start()
        except BaseException:
            ring.close()
            ring.unlink()
            raise
        child_conn.close()
        return parent_conn, proc, ring, counter

    def _kill_all(self) -> None:
        """SIGKILL and reap every worker, close its pipe, unlink its
        ring (after the reaping: no live worker is left mapped to a
        name-less segment): the end of :meth:`close`, and the undoing
        of a constructor that failed part-way."""
        _kill_and_reap(self._procs)
        for conn in self._conns:
            conn.close()
        for ring in self._rings:
            ring.close()
            ring.unlink()
        self._conns, self._procs, self._rings = [], [], []
        self._closed = True

    def _check_open(self) -> None:
        """A closed collector's state is gone: answering queries with
        "empty" would be indistinguishable from real answers, so every
        operation after close() raises instead."""
        if self._closed:
            raise CollectorClosedError(
                "collector is closed; its worker state is gone -- "
                "query results before close(), not after"
            )

    def drain(self) -> None:
        """Barrier: return once every sent record has been applied.

        A worker answers only after folding its whole ring backlog,
        so the replies prove every earlier batch was applied; any
        deferred worker-side ingest failure surfaces here.
        """
        self._check_open()
        with self._sp_drain:
            self._broadcast((_CALL, "drain"))

    def close(self, timeout: float = 30.0) -> None:
        """Stop and join the workers (idempotent).

        Each worker not lost gets a STOP, whose reply doubles as a
        final drain: it queues behind any in-flight batches, and a
        worker carrying a deferred ingest failure reports it in that
        reply -- ``close()`` re-raises it once every worker is gone, so
        no error from a fire-and-forget batch is ever silently
        discarded (the contract :meth:`drain` enforces mid-flight).
        Only a worker that acknowledges is joined.  One that does not
        within ``timeout`` seconds (wedged, or still folding a backlog
        larger than the timeout allows), or does not then exit, is
        lost (:meth:`_lose`), and every lost worker is *reported as an
        error*, never dropped on the floor; raise the timeout, or
        ``drain()`` first, when closing behind a large backlog.
        """
        if self._closed:
            return
        # The STOP goes with no wait: a healthy pipe takes the tiny
        # tuple at once, a wedged worker's full pipe loses its worker,
        # and a lost worker's closed pipe refuses it.
        for w in range(self.workers):
            self._request(w, (_STOP,), 0)
        errors = []
        for w in range(self.workers):
            try:
                self._reply(w, timeout)
            except _WorkerDied:
                continue
            except WorkerFailedError as exc:
                errors.append(str(exc))
            self._procs[w].join(timeout)
            if self._procs[w].is_alive():
                self._lose(w, f"worker {w} acknowledged its stop but did "
                              f"not exit in {timeout}s")
        errors += [
            f"{reason}; no stop acknowledged: the worker was SIGKILLed "
            "and its queued batches (and any deferred ingest error) "
            "were lost"
            for reason in self._lost if reason is not None
        ]
        self._kill_all()
        if errors:
            raise WorkerFailedError(
                "collector worker failed during ingestion:\n"
                + "\n".join(errors)
            )

    def __enter__(self) -> "ParallelCollector":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # A constructor that raised may have left any attribute unset.
        try:
            if not self._closed:
                self.close()
        except Exception:
            pass

    # -- transport ---------------------------------------------------------

    def _push(self, w: int, msg: tuple) -> None:
        """Push one data message into worker ``w``'s ring.

        ``msg`` is a ``(fids, pids, hops, digs, t)`` tuple -- the
        journal stores exactly these, so replay and live traffic share
        this one path.  A worker that cannot take the message (dead,
        or -- under ``wedge_timeout`` -- making no progress on a full
        ring) is lost, and :class:`_WorkerDied` raised; callers decide
        what that means.
        """
        try:
            self._rings[w].push(
                *msg, self._procs[w].is_alive, self._wedge_timeout
            )
        except PeerGoneError as exc:
            raise self._lose(w, f"worker {w}: {exc}") from exc

    def _lose(self, w: int, reason: str) -> _WorkerDied:
        """Lose worker ``w``: close its pipe, SIGKILL and reap it, keep
        ``reason`` -- the one step every detection point takes.

        Nothing talks to the worker again: a stopped one could still
        write the reply to an earlier request, which a later call would
        read as its own.  Repeating the step is harmless and keeps the
        first reason.  Returns the :class:`_WorkerDied` to raise; what
        the loss means is :meth:`_recover_worker`'s decision.
        """
        if self._lost[w] is None:
            self._lost[w] = reason
        self._conns[w].close()
        _kill_and_reap([self._procs[w]])
        return _WorkerDied(self._lost[w])

    def _pulse(self, w: int, start: float, timeout: Optional[float]) -> None:
        """Raise :class:`_WorkerDied` if worker ``w`` is dead, or alive
        but ``timeout`` seconds (None: never) past ``start`` without
        serving its pipe: wedged, as SIGSTOP and infinite loops look
        alike from the pipe, and both are cured by replacement."""
        if not self._procs[w].is_alive():
            raise _WorkerDied(f"worker {w} died mid-RPC")
        if (
            timeout is not None
            and time.monotonic() - start >= timeout  # repro-lint: disable=R002 reason=wedge detection times a live child process, not simulated replay time
        ):
            raise _WorkerDied(
                f"worker {w} wedged: pipe not served in {timeout}s with "
                "the process alive"
            )

    def _request(self, w: int, msg: tuple, timeout: Optional[float]) -> None:
        """Send one sync command to worker ``w``, watching its pulse.

        The pipe's one writer: ``msg`` goes as ``multiprocessing``'s
        length-prefixed frame (what the worker's ``conn.recv`` reads)
        on a non-blocking descriptor, waiting for room in short ticks
        as :meth:`_reply` waits for the answer.  It gives up when the
        worker dies or -- alive -- takes no whole request within
        ``timeout`` (``wedge_timeout``; :meth:`close` passes 0).  A
        frame given up part-way leaves the pipe unusable, so a failed
        send loses the worker (:meth:`_lose`; a lost worker's closed
        pipe fails at once) and is not raised here: :meth:`_reply`,
        which follows every request, reports the loss.  A scatter can
        therefore finish sending to the healthy workers first.
        """
        conn = self._conns[w]
        buf = ForkingPickler.dumps(msg)
        frame = memoryview(struct.pack("!i", len(buf)) + buf)
        start = time.monotonic()  # repro-lint: disable=R002 reason=wedge detection times a live child process, not simulated replay time
        try:
            fd = conn.fileno()
            room = select.poll()
            room.register(fd, select.POLLOUT)
            os.set_blocking(fd, False)
            try:
                while frame:
                    try:
                        frame = frame[os.write(fd, frame):]
                    except BlockingIOError:
                        self._pulse(w, start, timeout)
                        room.poll(50)
            finally:
                os.set_blocking(fd, True)
        except (OSError, _WorkerDied) as exc:
            self._lose(w, f"worker {w} took no whole request ({exc})")

    def _reply(self, w: int, timeout: Optional[float]):
        """Receive one sync reply, watching the worker's pulse.

        Never blocks on a corpse: it polls the pipe on a short tick
        and checks the worker's pulse in between, so a worker that
        died mid-RPC, or a live one silent past ``timeout``
        (``wedge_timeout`` everywhere but :meth:`close`), is lost
        (:meth:`_lose`) and raised as :class:`_WorkerDied` instead of
        hanging the parent.  A worker lost earlier raises at once.
        """
        conn = self._conns[w]
        start = time.monotonic()  # repro-lint: disable=R002 reason=wedge detection times a live child process, not simulated replay time
        try:
            while not conn.poll(0.05):
                # A reply may have raced the death: one last look.
                if not self._procs[w].is_alive() and conn.poll(0):
                    break
                self._pulse(w, start, timeout)
            tag, value = conn.recv()
        except _WorkerDied as exc:
            raise self._lose(w, str(exc))
        except (EOFError, OSError) as exc:
            raise self._lose(w, f"worker {w} died mid-RPC") from exc
        if tag == "err":
            raise WorkerFailedError(f"collector worker failed:\n{value}")
        return value

    def _await(self, w: int, msg: tuple):
        """The reply to ``msg``, already requested of worker ``w``.

        A worker lost mid-RPC -- its request or its reply -- is
        recovered and ``msg`` re-issued to its replacement
        (unsupervised, :meth:`_recover_worker` raises instead).  The
        retry is safe because every command is idempotent against
        restored state -- queries are read-only, ``expire``/``evict``
        converge to the same table either way -- and the re-sent
        message lands *after* the journal replay the recovery
        performed, exactly where it would have landed on a healthy
        worker.
        """
        while True:
            try:
                return self._reply(w, self._wedge_timeout)
            except _WorkerDied:
                self._recover_worker(w)
                self._request(w, msg, self._wedge_timeout)

    def _gather(self, requests: Dict[int, tuple]) -> dict:
        """Sync commands to several workers: send all, then collect.

        The wait then costs the slowest worker's backlog and reply,
        not the sum: the workers fold, build and pickle concurrently
        while the parent collects.  A worker lost meanwhile is
        recovered and re-asked alone.  Every reply is consumed even
        when one carries an error, so no reply is left stranded in a
        pipe to desync later RPCs.
        """
        for w, msg in requests.items():
            self._request(w, msg, self._wedge_timeout)
        replies = {}
        errors = []
        for w, msg in requests.items():
            try:
                replies[w] = self._await(w, msg)
            except WorkerFailedError as exc:
                errors.append(str(exc))
        if errors:
            raise WorkerFailedError("\n".join(errors))
        return replies

    def _broadcast(self, msg: tuple) -> list:
        """One sync command to *every* worker; replies in worker order."""
        requests = dict.fromkeys(range(self.workers), msg)
        return list(self._gather(requests).values())

    def _worker_of(self, shard_ids):
        """The worker owning each shard (one id or an array of them):
        round-robin, the one ownership rule."""
        return shard_ids % self.workers

    # -- worker loss: recover or raise -------------------------------------

    def _reap(self) -> None:
        """Proactive sentinel sweep: handle any silently dead worker.

        A ring push only notices death once the ring fills, which can
        be many batches late; sweeping at ingest time keeps the
        recovery point (and thus the replay volume) close to the death
        point -- and, unsupervised, stops the front door scattering
        into a ring nobody reads.
        """
        for w, proc in enumerate(self._procs):
            if not proc.is_alive():
                self._lose(w, f"worker {w} found dead")
                self._recover_worker(w)

    def _checkpoint_worker(self, w: int) -> None:
        """One checkpoint round-trip; ACK clears the worker's journal.

        The blob is validated (header + CRC) *before* the old one is
        replaced, and a dropped/corrupted write -- injected or real --
        leaves the previous checkpoint and the entire journal intact:
        rejecting a checkpoint must never widen the loss window, only
        fail to narrow it.  A worker found lost here -- its request or
        its reply -- is recovered and the checkpoint attempt abandoned
        (the cadence retries on the replacement soon enough).
        """
        journal = self._journals[w]
        self._ckpt_ordinal[w] += 1
        ordinal = self._ckpt_ordinal[w]
        self._request(w, (_CHECKPOINT,), self._wedge_timeout)
        try:
            data = self._reply(w, self._wedge_timeout)
        except _WorkerDied:
            self._recover_worker(w)
            return
        fate = (
            self._faults.checkpoint_fault(w, ordinal)
            if self._faults is not None else None
        )
        if fate == "drop":
            data = None
        elif fate == "corrupt" and data is not None:
            data = data[: len(data) // 2]
        if data is not None:
            try:
                validate_checkpoint(data, worker=w)
            except CheckpointError:
                data = None
        if data is None:
            self._rec["checkpoints_rejected"] += 1
            return
        self._checkpoints[w] = data
        journal.clear()
        journal.clear_dropped()
        self._msgs_since_ckpt[w] = 0
        self._rec["checkpoints_taken"] += 1

    def _recover_worker(self, w: int) -> None:
        """Worker ``w`` was lost (:meth:`_lose`): replace it (restore +
        replay), or raise.

        Without supervision there is no checkpoint to restore and no
        journal to replay, so the kept reason is raised as
        :class:`~repro.exceptions.WorkerFailedError` -- the one place
        that policy lives.  Supervised, the replacement installs the
        last validated checkpoint before reading its pipe, then the
        journal (every message since that checkpoint's ACK) is
        replayed in FIFO order -- reconstruction, not dedup, is what
        makes each message count exactly once.  If the journal evicted
        entries since the checkpoint (its window was exceeded), that
        *potential* loss now becomes actual: the per-shard dropped
        counts are pinned onto the restored shards as degraded marks.
        The ledger is deliberately *not* cleared here -- the
        checkpoint predates the marks, so a repeat death before the
        next ACK must re-apply them after its own restore.
        """
        reason = self._lost[w]
        if not self._supervised:
            raise WorkerFailedError(
                f"collector worker lost ({reason}); its shard state is "
                "gone -- check the worker traceback on stderr, or set "
                "checkpoint_every to survive worker loss"
            )
        self._restarts[w] += 1
        self._rec["restarts"] += 1
        if self._restarts[w] > MAX_RESTARTS:
            raise RecoveryError(
                f"worker {w} exceeded MAX_RESTARTS={MAX_RESTARTS} "
                f"(last failure: {reason}); a worker dying in a tight "
                "loop is a bug, not an outage to paper over",
                worker=w,
            )
        # The dead worker's ring may hold batches it never folded (the
        # journal replays them) and its consumed index is frozen
        # mid-stream: the replacement gets a fresh segment.  The old
        # one is unlinked here -- a SIGKILLed worker cannot unmap
        # anything, but the name must not outlive recovery.
        self._rings[w].close()
        self._rings[w].unlink()
        journal = self._journals[w]
        # The replacement's applied counter starts at sent-minus-replay
        # so the backlog gauge stays truthful: after the journal is
        # folded it reads zero again, exactly like a worker that never
        # died.
        (
            self._conns[w], self._procs[w], self._rings[w],
            self._applied[w],
        ) = self._spawn(
            w, self._checkpoints[w], max(0, self._sent[w] - len(journal))
        )
        self._lost[w] = None
        replay = journal.replay_messages()
        for m in replay:
            try:
                # Through the live push, into the fresh ring: the
                # replacement cannot tell replay from live traffic.
                self._push(w, m)
            except _WorkerDied as exc:
                raise RecoveryError(
                    f"worker {w} replacement died during journal "
                    f"replay (original failure: {reason})",
                    worker=w,
                ) from exc
        self._rec["replayed_batches"] += len(replay)
        self._rec["replayed_records"] += journal.records
        if journal.dropped_by_shard:
            # Not _gather: a retry after the recursive recovery (which
            # marks for itself) would pin the same loss twice.
            self._request(
                w, (_DEGRADE, dict(journal.dropped_by_shard)),
                self._wedge_timeout,
            )
            try:
                self._reply(w, self._wedge_timeout)
            except _WorkerDied:
                self._recover_worker(w)

    def _journal(self, w: int, msg: tuple, shard_ids: np.ndarray) -> None:
        """Supervision's half of a send: make ``msg`` replayable first.

        Journal-before-send is the crash-safety ordering -- a message
        the transport ate (worker lost mid-push) is already
        replayable.  ``shard_ids`` holds the shard of every record in
        ``msg``: the journal accounts records per shard, the
        granularity degraded marking needs.  A full journal first
        tries to make room the honest way (a checkpoint barrier:
        backpressure, not loss); only if checkpointing is itself
        failing does the append evict, and that eviction accrues
        potential loss the next recovery will materialise (degraded
        shards, records lost).
        """
        journal = self._journals[w]
        if journal.full:
            self._checkpoint_worker(w)
        uniq, counts = distinct(shard_ids, self.num_shards)
        evicted = journal.append(
            msg, int(shard_ids.shape[0]),
            dict(zip(uniq.tolist(), counts.tolist())),
        )
        if evicted is not None:
            self._rec["journal_dropped_batches"] += 1
            self._rec["journal_dropped_records"] += evicted.records
        self._msgs_since_ckpt[w] += 1

    def _post(self, w: int, msg: tuple) -> None:
        """Send one live data message to worker ``w``.

        Supervised (the caller journaled ``msg`` first), a worker lost
        mid-send is replaced and the journal replay delivers this very
        message; then due fault-plan kills/wedges fire, then the
        checkpoint cadence.  Unsupervised, a lost worker raises out of
        :meth:`_recover_worker` and the rest is inert.
        """
        self._sent[w] += 1
        try:
            self._push(w, msg)
        except _WorkerDied:
            self._recover_worker(w)
            return
        if self._faults is not None:
            for spec in self._faults.worker_faults(w, self._sent[w]):
                self._faults.fire_worker_fault(spec, self._procs[w].pid)
                if spec.kind == "kill":
                    # Make the death deterministic for the test/bench
                    # assertions: the next supervision touchpoint must
                    # observe it, not race it.
                    self._procs[w].join(timeout=5.0)
        if (
            self._supervised
            and self._msgs_since_ckpt[w] >= self._checkpoint_every
        ):
            self._checkpoint_worker(w)

    def recovery_stats(self, snapshot: Optional[Snapshot] = None):
        """The supervision ledger as a frozen :class:`RecoveryStats`.

        ``degraded_shards``/``records_lost`` describe *actual* loss
        and live on the workers' shards, so they are filled from a
        snapshot when one is provided (pass the snapshot you are
        attaching the stats to); without one they read 0.
        """
        degraded = len(snapshot.degraded_shards) if snapshot else 0
        lost = snapshot.records_lost if snapshot else 0
        return RecoveryStats(
            **self._rec, degraded_shards=degraded, records_lost=lost
        )

    # -- ingestion ---------------------------------------------------------

    @property
    def now(self) -> float:
        """The front door's current clock reading."""
        return self.clock.now

    def ingest_batch(
        self,
        flow_ids: Column,
        pids: Column,
        hop_counts: Column,
        digests: Column,
        now: Optional[float] = None,
    ) -> int:
        """Scatter a columnar batch to the workers; returns its size.

        The batch is routed with one vectorised hash and split into at
        most ``workers`` sub-batches (boolean masks preserve batch
        order, so per-flow streams stay sequential inside each worker).
        Sends are fire-and-forget: the call returns once the columns
        are in the rings, and :meth:`drain` (or any query) barriers
        with the workers.  A full ring is the back-pressure point: it
        bounds how far the front door can run ahead of a worker.  Each
        worker with records gets one message, journaled first when
        supervised.
        """
        self._check_open()
        batch = admit_batch(
            (flow_ids, pids, hop_counts, digests), self._code_bits,
            self.clock, now,
        )
        if batch is None:
            return 0
        fids, ps, hops, digs, t = batch
        with self._sp_scatter:
            self._reap()
            sids = self.router.shard_of_array(fids)
            wids = self._worker_of(sids)
            for w in range(self.workers):
                mask = wids == w
                if not mask.any():
                    continue
                msg = (fids[mask], ps[mask], hops[mask], digs[mask], t)
                if self._supervised:
                    self._journal(w, msg, sids[mask])
                self._post(w, msg)
        return int(fids.shape[0])

    # -- queries -----------------------------------------------------------

    def answers(self, flow_ids=None) -> AnswerTable:
        """The sink's answers as columns, one row per live flow.

        Same contract as :meth:`Collector.answers` and, for the same
        records, the same table: every worker builds the table of its
        own shards (one ``answers`` call each, all asked before any is
        awaited; with ``flow_ids``, only the owners of those flows are
        asked) and the replies -- a few arrays each, no consumer --
        merge into one ascending table.
        """
        self._check_open()
        with self._sp_answers:
            if flow_ids is None:
                requests = dict.fromkeys(
                    range(self.workers), (_CALL, "answers", None)
                )
            else:
                ids = sorted_distinct(flow_ids)
                owners = self._worker_of(self.router.shard_of_array(ids))
                requests = {
                    w: (_CALL, "answers", ids[owners == w])
                    for w in distinct(owners, self.workers)[0].tolist()
                }
            table = AnswerTable.concat(self._gather(requests).values())
        self._m_answer_rows.inc(len(table))
        return table

    def flow(self, flow_id: int) -> Optional[DigestConsumer]:
        """A point-in-time *copy* of the flow's consumer, or None.

        Unlike :meth:`Collector.flow`, the returned consumer is a
        pickled snapshot that lives in the calling process: reading it
        (``result()``, ``decode_errors``, ...) is exact as of the call,
        but mutating it does not touch the worker's state.
        """
        return self.flows([flow_id])[0]

    def flows(self, flow_ids) -> List[Optional[DigestConsumer]]:
        """Point-in-time consumer copies for many flows, input order.

        The *state* read: whole decoders cross the pipe (grouped by
        owner worker, one RPC per worker, all workers asked before any
        is awaited), which is what a caller comparing or inspecting
        decoder state needs.  A caller that wants the *answers* --
        results, coverage, counters -- reads :meth:`answers` instead,
        at a fraction of the transfer.
        """
        self._check_open()
        ids = [int(f) for f in flow_ids]
        out: List[Optional[DigestConsumer]] = [None] * len(ids)
        if not ids:
            return out
        by_worker: Dict[int, list] = {}
        owners = self._worker_of(self.router.shard_of_array(np.asarray(ids)))
        for pos, (fid, w) in enumerate(zip(ids, owners.tolist())):
            by_worker.setdefault(w, []).append((pos, fid))
        replies = self._gather({
            w: (_CALL, "flows", [fid for _, fid in pairs])
            for w, pairs in by_worker.items()
        })
        for w, pairs in by_worker.items():
            for (pos, _), consumer in zip(pairs, replies[w]):
                out[pos] = consumer
        return out

    def result(self, flow_id: int):
        """The flow's query answer, or None (unknown flow / undecoded)."""
        table = self.answers([flow_id])
        return table.answer(0)["result"] if len(table) else None

    def __len__(self) -> int:
        """Live flows across all workers."""
        self._check_open()
        return sum(self._broadcast((_CALL, "__len__")))

    # -- operations --------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> int:
        """Force a TTL sweep on every worker; returns evicted flows."""
        self._check_open()
        t = self.clock.expire_time(now)
        return sum(self._broadcast((_CALL, "expire", t)))

    def evict(self, flow_id: int) -> bool:
        """Drop one flow's state on its owner worker."""
        self._check_open()
        w = self._worker_of(self.router.shard_of(flow_id))
        return self._gather({w: (_CALL, "evict", flow_id)})[w]

    def snapshot(self) -> Snapshot:
        """Point-in-time metrics, merged across all workers.

        Each worker's snapshot keeps only the shards it owns; the merge
        reorders them by ``shard_id`` and stamps the front door's own
        clock, so the result is field-for-field the snapshot a serial
        collector fed the same batches would take.  The per-worker
        snapshot commands queue behind any in-flight batches, so the
        counters always reflect every record sent before this call.
        """
        self._check_open()
        parts = [
            replace(part, shards=[
                s for s in part.shards if self._worker_of(s.shard_id) == w
            ])
            for w, part in enumerate(self._broadcast((_CALL, "snapshot")))
        ]
        snap = Snapshot.merged(
            parts, taken_at=self.clock.now
        ).with_metrics(self.obs.as_dict() if self.obs.enabled else None)
        if self._supervised:
            snap = snap.with_recovery(self.recovery_stats(snap))
        return snap
