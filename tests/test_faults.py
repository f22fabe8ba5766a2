"""Seeded fault injection + service-side resilience (repro.faults).

The chaos half of the PR-8 contract: the FaultPlan DSL is
deterministic and logs what it fired; the server's frame faults are
counted-and-dropped, never folded; reliable UDP stays exactly-once
*through* injected frame corruption (retransmits cover the chaos);
retry pacing is one exponentially backed-off timer with a total-send
deadline; and the serve CLI checkpoints on SIGTERM and resumes with
``--restore``.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.collector import (
    Collector,
    ParallelCollector,
    path_consumer_factory,
)
from repro.faults import (
    FaultPlan,
    FaultSpec,
    corrupt_checkpoint,
    corrupt_frame,
    drop_checkpoint,
    drop_frame,
    kill_worker,
    stall_queue,
    truncate_frame,
    wedge_worker,
)
from repro.service import (
    CollectorServer,
    DeliveryError,
    ReliableUDPSender,
    ServiceError,
)
from repro.service.__main__ import main
from repro.service.client import MAX_RETRIES, WINDOW

UNIVERSE = list(range(1, 33))
REPO = Path(__file__).resolve().parent.parent
FAST_RTO = dict(min_rto=0.005, initial_rto=0.02, max_rto=0.1)


def make_collector(**kw):
    kw.setdefault("num_shards", 4)
    kw.setdefault("seed", 0)
    return Collector(
        path_consumer_factory(UNIVERSE, digest_bits=8, num_hashes=1, seed=0),
        **kw,
    )


def batch(n, base=0):
    fids = np.arange(base, base + n, dtype=np.int64) % 17
    pids = np.arange(base, base + n, dtype=np.int64)
    hops = np.full(n, 4, dtype=np.int64)
    digs = (pids * 31 + 7) % 251
    return fids, pids, hops, digs


# -- the DSL ----------------------------------------------------------------

class TestFaultSpecs:
    def test_constructors_map_to_kinds(self):
        assert kill_worker(1, 3).kind == "kill"
        assert wedge_worker(0, 2).kind == "wedge"
        assert drop_checkpoint(0).at is None
        assert corrupt_checkpoint(1, at=2).at == 2
        assert corrupt_frame(5).kind == "corrupt_frame"
        assert truncate_frame(5).kind == "truncate_frame"
        assert drop_frame(5).kind == "drop_frame"
        assert stall_queue(1, 0.5).seconds == 0.5

    def test_pinned_ordinal_fires_exactly_once(self):
        spec = FaultSpec("kill", worker=0, at=3)
        assert not spec._matches(2)
        assert spec._matches(3)
        assert not spec._matches(3)  # spent
        assert not spec._matches(4)

    def test_recurring_fires_every_time(self):
        spec = FaultSpec("drop_checkpoint", worker=0, at=None)
        assert all(spec._matches(i) for i in range(1, 5))

    def test_worker_faults_filter_by_worker_and_log(self):
        plan = FaultPlan([kill_worker(1, 3), kill_worker(0, 3)])
        assert plan.worker_faults(2, 3) == []
        due = plan.worker_faults(1, 3)
        assert len(due) == 1 and due[0].worker == 1
        assert plan.fired == [("kill", "worker=1", 3)]

    def test_checkpoint_fault_fates(self):
        plan = FaultPlan([drop_checkpoint(0, at=1),
                          corrupt_checkpoint(0, at=2)])
        assert plan.checkpoint_fault(0, 1) == "drop"
        assert plan.checkpoint_fault(0, 2) == "corrupt"
        assert plan.checkpoint_fault(0, 3) is None
        assert plan.checkpoint_fault(1, 1) is None

    def test_reset_rearms_and_clears_log(self):
        plan = FaultPlan([kill_worker(0, 1)])
        plan.worker_faults(0, 1)
        assert plan.fired
        plan.reset()
        assert plan.fired == []
        assert plan.worker_faults(0, 1)  # fires again after reset

    def test_chaos_is_seed_deterministic(self):
        a = FaultPlan.chaos(workers=4, max_batch=100, seed=9, kills=2)
        b = FaultPlan.chaos(workers=4, max_batch=100, seed=9, kills=2)
        assert [(s.worker, s.at) for s in a.specs] == \
               [(s.worker, s.at) for s in b.specs]
        assert len(a.specs) == 2
        assert all(1 <= s.at <= 100 for s in a.specs)
        with pytest.raises(ValueError):
            FaultPlan.chaos(workers=2, max_batch=10, kills=3)

    def test_mutate_frame_kinds(self):
        frame = b"PI" + bytes(30)
        drop = FaultPlan([drop_frame(1)])
        assert drop.mutate_frame(frame) is None
        trunc = FaultPlan([truncate_frame(1)])
        assert trunc.mutate_frame(frame) == frame[: len(frame) // 2]
        corrupt = FaultPlan([corrupt_frame(1)])
        mutated = corrupt.mutate_frame(frame)
        assert mutated[0] != frame[0] and mutated[1:] == frame[1:]
        # Ordinals advance even on clean frames.
        clean = FaultPlan([corrupt_frame(2)])
        assert clean.mutate_frame(frame) == frame
        assert clean.mutate_frame(frame) != frame


# -- server-side frame faults ----------------------------------------------

class TestServerFrameFaults:
    def _frame(self, n=4):
        from repro.service import encode_frame
        fids, pids, hops, digs = batch(n)
        return encode_frame(fids, pids, hops, digs, 1.0, 0, reliable=True)

    def test_corrupted_frame_counted_not_folded(self):
        plan = FaultPlan([corrupt_frame(1)])
        srv = CollectorServer(make_collector(), faults=plan)
        srv._on_datagram(self._frame(), ("127.0.0.1", 9))
        assert srv.service_stats().dropped_bad_frame == 1
        assert plan.fired == [("corrupt_frame", "frame", 1)]

    def test_truncated_frame_counted_not_folded(self):
        plan = FaultPlan([truncate_frame(1)])
        srv = CollectorServer(make_collector(), faults=plan)
        srv._on_datagram(self._frame(), ("127.0.0.1", 9))
        assert srv.service_stats().dropped_bad_frame == 1

    def test_dropped_frame_never_arrives(self):
        plan = FaultPlan([drop_frame(1)])
        srv = CollectorServer(make_collector(), faults=plan)
        srv._on_datagram(self._frame(), ("127.0.0.1", 9))
        assert srv.service_stats().frames_received == 0
        assert srv._queue.qsize() == 0
        assert plan.fired == [("drop_frame", "frame", 1)]

    def test_reliable_exactly_once_through_frame_chaos(self):
        # Frames 2 and 3 are corrupted/dropped on arrival; the
        # sender's RTO covers both and the sink still folds every
        # record exactly once -- bit-identical to in-process ingest.
        plan = FaultPlan([corrupt_frame(2), drop_frame(3)])
        direct = make_collector()
        served = make_collector()
        with CollectorServer(served, faults=plan) as srv:
            tx = ReliableUDPSender("127.0.0.1", srv.udp_port,
                                   max_records=16, **FAST_RTO)
            cols = batch(200)
            direct.ingest_batch(*cols, now=1.0)
            tx.send_batch(*cols, now=1.0)
            tx.flush()
            tx.sock.close()
            srv.drain()
            assert tx.retransmits >= 2
            kinds = {k for k, _, _ in plan.fired}
            assert kinds == {"corrupt_frame", "drop_frame"}
            assert served.snapshot().as_dict() == direct.snapshot().as_dict()

    def test_stall_queue_delays_but_never_drops(self):
        plan = FaultPlan([stall_queue(1, 0.2)])
        with CollectorServer(make_collector(), faults=plan) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(50), now=1.0)
            assert ("stall_queue", "queue", 1) in plan.fired
            assert srv.service_stats().records_ingested == 50

    def test_window_paces_the_queue(self):
        # The server ACKs a frame once it is off the admission queue, so
        # a window no larger than the queue cannot overfill it, even
        # while the ingest thread stalls.  RTOs during the stall are
        # expected; queue-full drops are not.
        plan = FaultPlan([stall_queue(1, 0.3)])
        with CollectorServer(make_collector(), queue_frames=WINDOW,
                             faults=plan) as srv:
            tx = ReliableUDPSender("127.0.0.1", srv.udp_port, max_records=8)
            for i in range(8):
                tx.send_batch(*batch(64, base=i * 1000), now=float(i))
            tx.flush()
            srv.drain()
            stats = srv.service_stats()
            assert ("stall_queue", "queue", 1) in plan.fired
            assert stats.dropped_queue_full == 0
            assert stats.records_ingested == 512
            assert stats.batches_ingested == 8
            tx.close()


# -- retry pacing -----------------------------------------------------------

class TestScaledRto:
    def make_tx(self, **kw):
        tx = ReliableUDPSender("127.0.0.1", 1, **kw)
        tx.sock.close()
        return tx

    def test_backoff_is_pure_exponential(self):
        tx = self.make_tx(initial_rto=0.1, max_rto=10.0)
        assert tx._scaled_rto(0) == pytest.approx(0.1)
        assert tx._scaled_rto(1) == pytest.approx(0.2)
        assert tx._scaled_rto(3) == pytest.approx(0.8)

    def test_backoff_caps_at_max_rto(self):
        tx = self.make_tx(initial_rto=0.1, max_rto=0.5)
        assert tx._scaled_rto(10) == pytest.approx(0.5)

    def test_send_deadline_caps_window_wait(self):
        # A black-hole drop_fn: frame WINDOW can never enter the
        # window; the *total* deadline fires long before MAX_RETRIES
        # resends would.
        tx = ReliableUDPSender(
            "127.0.0.1", 1, max_records=8,
            send_timeout=0.3, drop_fn=lambda seq, attempt: True,
            **FAST_RTO,
        )
        start = time.monotonic()
        with pytest.raises(DeliveryError, match="window still full"):
            tx.send_batch(*batch(8 * (WINDOW + 1)), now=1.0)
        assert time.monotonic() - start < 5.0
        assert tx.retransmits < MAX_RETRIES
        tx.sock.close()


# -- reliable UDP: a sender reconnect ---------------------------------------

class TestReliableUDPReconnect:
    def test_new_sender_after_close_delivers_exactly_once(self):
        # A reconnecting sender is a new socket, so a new source
        # address with a fresh seq space: nothing it sends is taken
        # for a duplicate of the old sender's frames, nor folded twice.
        # No loss and an RTO well above a fold's latency, so nothing
        # is resent and no frame arrives twice.
        kw = dict(max_records=16, min_rto=0.2, initial_rto=0.5)
        with CollectorServer(make_collector()) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port, **kw) as tx:
                tx.send_batch(*batch(100), now=1.0)
            with ReliableUDPSender("127.0.0.1", srv.udp_port,
                                   **kw) as tx2:
                tx2.send_batch(*batch(50, base=1000), now=2.0)
            srv.drain()
            stats = srv.service_stats()
            assert tx.retransmits == tx2.retransmits == 0
            assert stats.records_ingested == 150
            assert stats.batches_ingested == 2
            assert stats.duplicate_frames == 0
            assert len(srv._peers) == 2


# -- server checkpoint/restore ----------------------------------------------

class TestServerCheckpoint:
    def test_save_then_restore_reproduces_state(self, tmp_path):
        path = str(tmp_path / "srv.ckpt")
        original = make_collector()
        with CollectorServer(original) as srv:
            with ReliableUDPSender("127.0.0.1", srv.udp_port) as tx:
                tx.send_batch(*batch(120), now=1.0)
            srv.save_checkpoint(path)
        restored = make_collector()
        srv2 = CollectorServer(restored)
        srv2.restore_checkpoint(path)
        assert restored.snapshot().as_dict() == original.snapshot().as_dict()
        for fid in range(17):
            assert restored.result(fid) == original.result(fid)

    def test_parallel_collector_refused_with_typed_error(self, tmp_path):
        # A ParallelCollector's state lives in its workers; the
        # server-side file checkpoint only speaks serial collectors.
        par = ParallelCollector(
            path_consumer_factory(UNIVERSE, digest_bits=8, num_hashes=1,
                                  seed=0),
            workers=2, num_shards=4,
        )
        srv = CollectorServer(par)
        with pytest.raises(ServiceError, match="checkpoint"):
            srv.save_checkpoint(str(tmp_path / "x.ckpt"))
        with pytest.raises(ServiceError, match="restore"):
            srv.restore_checkpoint(str(tmp_path / "x.ckpt"))
        par.close()

    def test_restore_missing_file_raises_file_not_found(self, tmp_path):
        srv = CollectorServer(make_collector())
        with pytest.raises(FileNotFoundError):
            srv.restore_checkpoint(str(tmp_path / "absent.ckpt"))


# -- serve CLI: checkpoint on SIGTERM, --restore on boot --------------------

class TestServeCheckpointCLI:
    def _serve(self, tmp_path, *extra, **popen):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--scenario", "incast", "--packets", "600",
             "--duration", "60",
             "--checkpoint", str(tmp_path / "cli.ckpt"), *extra],
            cwd=REPO, stdout=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            **popen,
        )

    def test_sigterm_checkpoint_then_restore_resumes(self, tmp_path,
                                                     capsys):
        proc = self._serve(tmp_path)
        try:
            ready = proc.stdout.readline()
            assert ready.startswith("SERVICE READY")
            ports = dict(kv.split("=") for kv in ready.split()[2:])
            assert main(["send", "--scenario", "incast", "--packets",
                         "600", "--port", ports["udp"]]) == 0
            capsys.readouterr()
            deadline = time.monotonic() + 15
            while True:
                assert main(["query", "--port", ports["query"],
                             "--op", "stats"]) == 0
                stats = json.loads(capsys.readouterr().out)["stats"]
                if stats["records_ingested"] == 600:
                    break
                assert time.monotonic() < deadline, stats
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        lines = out.strip().splitlines()
        assert any(ln.startswith("CHECKPOINT SAVED") for ln in lines)
        first = json.loads(lines[-1])
        assert first["records"] == 600
        assert (tmp_path / "cli.ckpt").exists()

        # Boot a fresh process from the checkpoint: the restored
        # snapshot carries the pre-restart records without one frame
        # being resent.
        proc = self._serve(tmp_path, "--restore")
        try:
            restored = proc.stdout.readline()
            assert restored.startswith("RESTORED checkpoint=")
            ready = proc.stdout.readline()
            assert ready.startswith("SERVICE READY")
            ports = dict(kv.split("=") for kv in ready.split()[2:])
            assert main(["query", "--port", ports["query"],
                         "--op", "snapshot"]) == 0
            snap = json.loads(capsys.readouterr().out)["snapshot"]
            assert snap["records"] == 600
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()

        # The checkpoint was written by an 8-bit sink: a 4-bit one
        # refuses it, names the field, and does not start serving.
        proc = self._serve(
            tmp_path, "--restore", "--digest-bits", "4",
            stderr=subprocess.PIPE,
        )
        out, err = proc.communicate(timeout=30)
        assert proc.returncode != 0
        assert "SERVICE READY" not in out
        assert "RESTORE REFUSED" in err and "digest_bits" in err

    def test_restore_without_checkpoint_path_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--scenario", "incast", "--packets", "100",
                  "--restore", "--duration", "0.1"])

    def test_restore_missing_file_is_fresh_start(self, tmp_path, capsys):
        # First boot of a recovery-configured service: nothing to
        # restore is normal, and the shutdown still writes the file.
        path = tmp_path / "fresh.ckpt"
        assert main(["serve", "--scenario", "incast", "--packets", "100",
                     "--checkpoint", str(path), "--restore",
                     "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "RESTORE SKIPPED" in out
        assert "CHECKPOINT SAVED" in out
        assert path.exists()
