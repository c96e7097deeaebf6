"""Campaign service tests: queue, leases, workers, host chaos.

The invariant every scenario here defends: an N-worker service run —
including workers that are SIGKILLed mid-chunk, freeze their
heartbeats, skew their clocks, or stall and resume after their lease
was reassigned — produces a CampaignReport byte-identical to a serial
``run_campaign`` of the same (backend, config).
"""

import os
import signal
import threading
import time

import pytest

from repro.circuit import load
from repro.core import CampaignDb
from repro.engine import (
    ChaosBackend,
    ChaosFault,
    EarlyStop,
    EngineConfig,
    HostChaos,
    HostFault,
    SeuBackend,
    run_campaign,
)
from repro.service import (
    CampaignQueue,
    CampaignWorker,
    LeaseManager,
    LocalWorkerPool,
    run_service_campaign,
)
from repro.soft_error import random_workload

N_CYCLES = 8  # 12 flops x 8 cycles = 96 points, 4 chunks of 24


def _backend(n_cycles: int = N_CYCLES) -> SeuBackend:
    circuit = load("rand_seq")
    return SeuBackend(circuit, random_workload(circuit, n_cycles, seed=7),
                      lane_width=1)


def _signature(report):
    """Everything report identity promises: outcomes, counts, interval,
    early-stop decision, quarantine."""
    return ([inj.row() for inj in report.injections], report.outcomes,
            report.total, report.converged,
            report.confidence_interval("failure"),
            [(q.index, q.n_points, q.attempts) for q in report.quarantined])


def _config(**kw) -> EngineConfig:
    kw.setdefault("batch_size", 24)
    kw.setdefault("seed", 7)
    kw.setdefault("executor", "serial")
    return EngineConfig(**kw)


def _run_inline(db_path, backend, config, **worker_kw):
    """Submit + run one in-process worker to completion; return
    (job, report, queue-signature)."""
    with CampaignQueue(db_path) as queue:
        job_id = queue.submit(backend, config)
    worker = CampaignWorker(db_path, **worker_kw)
    worker.run()
    with CampaignQueue(db_path) as queue:
        job = queue.poll(job_id)
        assert job.state == "done", job
        report = queue.result(job_id)
    return job, report


# ----------------------------------------------------------------------
# leases: the claim state machine, on a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestLeases:
    def _manager(self, tmp_path, name="leases.sqlite"):
        clock = FakeClock()
        db = CampaignDb(tmp_path / name)
        return LeaseManager(db, now=clock), clock, db

    def test_claims_hand_out_chunks_in_index_order(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 3)
        got = [lm.claim_next(1, "w", ttl=10).chunk_index for _ in range(3)]
        assert got == [0, 1, 2]
        assert lm.claim_next(1, "w", ttl=10) is None  # all held, live
        db.close()

    def test_expired_lease_is_taken_over(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        first = lm.claim_next(1, "a", ttl=10)
        assert (first.attempts, first.takeovers) == (1, 0)
        assert lm.claim_next(1, "b", ttl=10) is None  # deadline still live
        clock.advance(11)
        stolen = lm.claim_next(1, "b", ttl=10)
        assert stolen.worker_id == "b"
        assert (stolen.attempts, stolen.takeovers) == (2, 1)
        assert lm.takeover_total(1) == 1
        db.close()

    def test_heartbeat_extends_and_keeps_the_lease(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        clock.advance(8)
        assert lm.extend("a", ttl=10) == 1  # deadline now t+10
        clock.advance(8)  # 16s after claim: would be expired without it
        assert lm.claim_next(1, "b", ttl=10) is None
        db.close()

    def test_stale_holder_cannot_complete_after_takeover(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        clock.advance(11)
        lm.claim_next(1, "b", ttl=10)
        assert not lm.complete(1, 0, "a")  # stale worker loses
        assert lm.complete(1, 0, "b")
        assert lm.get(1, 0).state == "done"
        db.close()

    def test_release_makes_the_chunk_reclaimable(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 1)
        lm.claim_next(1, "a", ttl=10)
        assert lm.release(1, 0, "a", error="boom")
        lease = lm.claim_next(1, "b", ttl=10)  # immediately, no expiry wait
        assert lease.worker_id == "b" and lease.attempts == 2
        db.close()

    def test_fail_and_cancel_are_terminal(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 2)
        lm.claim_next(1, "a", ttl=10)
        assert lm.fail(1, 0, "a", error="quarantined")
        assert lm.cancel_open(1) == 1  # only the pending chunk 1
        clock.advance(100)
        assert lm.claim_next(1, "b", ttl=10) is None
        assert lm.counts(1) == {"failed": 1, "cancelled": 1}
        db.close()

    def test_release_all_on_drain(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.create(1, 3)
        lm.claim_next(1, "a", ttl=10)
        lm.claim_next(1, "a", ttl=10)
        assert lm.release_all("a") == 2
        assert lm.counts(1) == {"released": 2, "pending": 1}
        db.close()

    def test_worker_registry_reaps_on_lapsed_heartbeats(self, tmp_path):
        lm, clock, db = self._manager(tmp_path)
        lm.register_worker("a", pid=1, host="h")
        lm.bump_worker("a", done=2, failures=1)
        assert lm.reap_stale_workers(ttl=10) == 0
        clock.advance(31)  # 3 TTLs
        assert lm.reap_stale_workers(ttl=10) == 1
        (row,) = lm.workers()
        assert row[3] == "gone" and row[5] == 2 and row[6] == 1
        db.close()


# ----------------------------------------------------------------------
# queue: submit / poll / cancel
# ----------------------------------------------------------------------
class TestQueue:
    def test_submit_poll_cancel(self, tmp_path):
        with CampaignQueue(tmp_path / "q.sqlite") as queue:
            job_id = queue.submit(_backend(), _config())
            job = queue.poll(job_id)
            assert job.state == "pending" and not job.finished
            assert queue.cancel(job_id)
            assert queue.poll(job_id).state == "cancelled"
            assert not queue.cancel(job_id)  # terminal: second cancel no-ops

    def test_poll_unknown_job_raises(self, tmp_path):
        with CampaignQueue(tmp_path / "q.sqlite") as queue:
            with pytest.raises(KeyError):
                queue.poll(99)

    def test_cancelled_job_is_not_picked_up(self, tmp_path):
        db_path = tmp_path / "q.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(), _config())
            queue.cancel(job_id)
        worker = CampaignWorker(db_path, worker_id="w")
        assert worker.run() == 0

    def test_unrunnable_payload_poisons_the_job(self, tmp_path):
        db_path = tmp_path / "q.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(), _config())
            # corrupt the pickled payload in place
            queue.db.conn.execute(
                "UPDATE service_jobs SET payload=? WHERE id=?",
                (b"garbage", job_id))
            queue.db.conn.commit()
        CampaignWorker(db_path, worker_id="w").run()
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
        assert job.state == "failed" and job.error


# ----------------------------------------------------------------------
# identity: a service run reports byte-identically to a serial run
# ----------------------------------------------------------------------
class TestServiceIdentity:
    def test_single_worker_matches_serial(self, tmp_path):
        serial = run_campaign(_backend(), _config())
        _, report = _run_inline(tmp_path / "s.sqlite", _backend(), _config(),
                                worker_id="solo")
        assert _signature(report) == _signature(serial)

    def test_early_stop_converges_on_the_serial_chunk(self, tmp_path):
        # commit_every=1 keeps the worker's claim batch at one chunk, so
        # convergence is detected on the exact chunk and the cancelled
        # tail count below is deterministic
        config = _config(batch_size=12, sample=None, shuffle=True,
                         commit_every=1,
                         early_stop=EarlyStop(outcome="failure", margin=0.08,
                                              min_injections=16))
        serial = run_campaign(_backend(n_cycles=32), config)
        assert serial.converged  # the scenario needs an actual early stop
        job, report = _run_inline(tmp_path / "s.sqlite",
                                  _backend(n_cycles=32), config,
                                  worker_id="solo")
        assert _signature(report) == _signature(serial)
        assert job.converged_chunk is not None
        with CampaignQueue(tmp_path / "s.sqlite") as queue:
            counts = queue.leases.counts(job.campaign_id)
        # the un-needed tail past the convergence chunk was cancelled
        assert counts.get("cancelled", 0) == (job.n_chunks
                                              - job.converged_chunk - 1)

    def test_two_threaded_workers_match_serial(self, tmp_path):
        config = _config(batch_size=12)
        serial = run_campaign(_backend(), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(), config)
        workers = [CampaignWorker(db_path, worker_id=f"t{i}",
                                  lease_ttl=5.0) for i in range(2)]
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        with CampaignQueue(db_path) as queue:
            assert queue.poll(job_id).state == "done"
            report = queue.result(job_id)
        assert _signature(report) == _signature(serial)
        assert sum(w.chunks_executed for w in workers) >= 8

    def test_quarantine_flows_through_the_service(self, tmp_path):
        """A persistently failing chunk ends up quarantined — the same
        first-class 'failed' stratum a serial run reports."""
        def chaotic():
            inner = _backend()
            trigger = inner.enumerate_points()[0]
            return ChaosBackend(inner, [ChaosFault(trigger, mode="raise",
                                                   failures=None)])

        config = _config(max_chunk_retries=1, retry_backoff_s=0.001,
                         shuffle=False)
        serial_db = CampaignDb(tmp_path / "serial.sqlite")
        serial = run_campaign(chaotic(), config, db=serial_db)
        serial_db.close()
        assert serial.quarantined  # scenario sanity
        job, report = _run_inline(tmp_path / "s.sqlite", chaotic(), config,
                                  worker_id="solo")
        assert _signature(report) == _signature(serial)
        with CampaignQueue(tmp_path / "s.sqlite") as queue:
            counts = queue.leases.counts(job.campaign_id)
            (worker_row,) = queue.leases.workers()
        assert counts.get("failed") == len(serial.quarantined)
        # per-worker failure accounting fed the registry
        assert worker_row[6] >= config.max_chunk_retries + 1


    @staticmethod
    def _quarantined_chunk0_job(tmp_path, config):
        """A finished single-worker job of 24 chunks whose chunk 0 fails
        on every execution, next to the serial reference run."""
        def chaotic():
            inner = _backend(n_cycles=48)
            trigger = inner.enumerate_points()[0]
            return ChaosBackend(inner, [ChaosFault(trigger, mode="raise",
                                                   failures=None)])

        serial = run_campaign(chaotic(), config)
        assert [q.index for q in serial.quarantined] == [0]
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(chaotic(), config)
        CampaignWorker(db_path, worker_id="solo").run()
        return serial, db_path, job_id

    def test_report_assembly_executes_nothing(self, tmp_path, monkeypatch):
        """The report of a finished job is replayed from its done and
        failed records; the quarantined chunk is not re-executed, and
        neither is anything after it."""
        config = _config(max_chunk_retries=1, retry_backoff_s=0.001)
        serial, db_path, job_id = self._quarantined_chunk0_job(tmp_path,
                                                               config)
        calls = []
        run_batch = SeuBackend.run_batch

        def counting(self, points):
            calls.append(len(points))
            return run_batch(self, points)

        monkeypatch.setattr(SeuBackend, "run_batch", counting)
        with CampaignQueue(db_path) as queue:
            assert queue.poll(job_id).n_chunks == 24
            report = queue.result(job_id)
        assert calls == []
        assert _signature(report) == _signature(serial)

    def test_early_stop_walk_passes_a_quarantined_chunk(self, tmp_path):
        """With chunk 0 quarantined, the service's convergence walk
        carries on past it and stops on serial's chunk."""
        config = _config(max_chunk_retries=1, retry_backoff_s=0.001,
                         early_stop=EarlyStop(margin=0.08,
                                              min_injections=50))
        serial, db_path, job_id = self._quarantined_chunk0_job(tmp_path,
                                                               config)
        assert serial.converged and serial.executed == 5 * 24
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            report = queue.result(job_id)
        assert job.converged_chunk == 5
        assert _signature(report) == _signature(serial)


# ----------------------------------------------------------------------
# host chaos, in-process: stale workers, frozen heartbeats, clock skew
# ----------------------------------------------------------------------
class TestHostChaosThreaded:
    def _run_pair(self, tmp_path, config, chaos):
        """One scripted worker + one clean worker, as threads."""
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(n_cycles=16), config)
        scripted = CampaignWorker(db_path, worker_id="scripted",
                                  lease_ttl=1.0, chaos=chaos)
        clean = CampaignWorker(db_path, worker_id="clean", lease_ttl=1.0)
        threads = [threading.Thread(target=w.run)
                   for w in (scripted, clean)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert job.state == "done", job
            report = queue.result(job_id)
            takeovers = queue.leases.takeover_total(job.campaign_id)
        return report, takeovers

    def test_stale_worker_resuming_after_reassignment(self, tmp_path):
        """Frozen heartbeats + a stall between execute and record: the
        lease expires mid-stall, a peer re-executes, and the stale
        worker's late write is idempotently absorbed."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=16), config)
        chaos = HostChaos([HostFault("freeze_heartbeat", after_chunks=1),
                           HostFault("stall", after_chunks=2, stall_s=2.5)])
        report, takeovers = self._run_pair(tmp_path, config, chaos)
        assert _signature(report) == _signature(serial)
        assert takeovers >= 1  # the stalled lease really was reassigned

    def test_clock_skewed_worker_stays_identical(self, tmp_path):
        """A worker whose clock runs 30s fast sees peers' live leases
        as expired and steals them — duplicated execution the
        idempotent record layer must (and does) collapse."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=16), config)
        chaos = HostChaos([HostFault("clock_skew", skew_s=30.0)])
        report, _ = self._run_pair(tmp_path, config, chaos)
        assert _signature(report) == _signature(serial)


# ----------------------------------------------------------------------
# host chaos, real processes: SIGKILL, SIGTERM drain, the full gauntlet
# ----------------------------------------------------------------------
class TestHostChaosProcesses:
    def test_sigkilled_worker_is_recovered(self, tmp_path):
        """SIGKILL mid-chunk: the dead worker's lease expires and a
        peer finishes the chunk; the report never notices.  The peers
        are held until the scripted worker has died on its 2nd claim,
        so the fault fires on every run instead of racing a drained
        queue."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=24), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(n_cycles=24), config)
        victim = LocalWorkerPool(db_path, 1, worker_kwargs={
            "lease_ttl": 1.0, "worker_id": "victim",
            "chaos": HostChaos([HostFault("sigkill", after_chunks=2)])})
        victim.start()
        victim.join(timeout=60)
        assert victim.procs[0].exitcode == -signal.SIGKILL  # it fired
        with LocalWorkerPool(db_path, 2, worker_kwargs={"lease_ttl": 1.0}):
            with CampaignQueue(db_path) as queue:
                job = queue.wait(job_id, timeout=120)
                assert job.state == "done", job
                report = queue.result(job_id)
                assert queue.leases.takeover_total(job.campaign_id) >= 1
        assert _signature(report) == _signature(serial)

    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM: the worker finishes its in-flight chunk, releases
        held leases, retires its registry row — and a later worker
        completes the campaign identically."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=24), config)
        db_path = tmp_path / "s.sqlite"
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(_backend(n_cycles=24), config)
        pool = LocalWorkerPool(db_path, 1,
                               worker_kwargs={"lease_ttl": 5.0,
                                              "worker_id": "drainee"})
        pool.start()
        deadline = time.monotonic() + 60
        with CampaignQueue(db_path) as queue:
            while (queue.poll(job_id).chunks_done < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        pool.terminate()
        pool.join(timeout=30)
        assert not pool.alive()
        with CampaignQueue(db_path) as queue:
            job = queue.poll(job_id)
            assert job.state == "running"  # drained, not finished
            held = [l for l in queue.leases.leases(job.campaign_id)
                    if l.state == "held"]
            assert not held  # everything released on the way out
            rows = dict((w[0], w[3]) for w in queue.leases.workers())
            assert rows["drainee"] == "drained"
        # a fresh worker picks the campaign back up to completion
        CampaignWorker(db_path, worker_id="finisher").run()
        with CampaignQueue(db_path) as queue:
            assert queue.poll(job_id).state == "done"
            report = queue.result(job_id)
        assert _signature(report) == _signature(serial)

    def test_acceptance_gauntlet_stays_byte_identical(self, tmp_path):
        """The ISSUE acceptance scenario: 4 workers — one SIGKILLed
        mid-chunk, one with frozen heartbeats and a stale return, one
        clock-skewed — still produce a report byte-identical to the
        serial reference."""
        config = _config(batch_size=12)
        serial = run_campaign(_backend(n_cycles=24), config)
        report = run_service_campaign(
            _backend(n_cycles=24), config,
            db_path=tmp_path / "s.sqlite", n_workers=4,
            worker_kwargs={"lease_ttl": 1.0},
            per_worker={
                1: {"chaos": HostChaos(
                    [HostFault("sigkill", after_chunks=2)])},
                2: {"chaos": HostChaos(
                    [HostFault("freeze_heartbeat", after_chunks=1),
                     HostFault("stall", after_chunks=2, stall_s=2.5)])},
                3: {"chaos": HostChaos(
                    [HostFault("clock_skew", skew_s=30.0)])},
            },
            wait_timeout=180)
        assert _signature(report) == _signature(serial)
