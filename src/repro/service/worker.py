"""CampaignWorker: the service's execution loop.

Any number of these — threads, processes, hosts — run against the same
CampaignDb file.  Each worker independently polls the job queue,
re-derives the deterministic :class:`~repro.engine.core.CampaignPlan`
from the job payload, and then loops: claim a lease, execute the chunk
with its planned seed, record the result idempotently, complete the
lease.  Coordination is *only* the lease table; workers never talk to
each other.

Crash safety falls out of two facts.  First, a chunk's result is a
pure function of ``(chunk, seed)`` — so re-executing it anywhere
yields byte-identical rows.  Second, ``record_chunk`` is idempotent —
so duplicated execution (an expired lease reclaimed while the original
worker still finishes) collapses to one committed record.  A worker
can therefore die at ANY instruction without corrupting the campaign:
its held leases expire and are re-claimed, and the worst case is
wasted duplicate work.

A heartbeat thread (own database connection — sqlite3 connections are
thread-bound) extends the deadlines of all held leases every
``lease_ttl / 3`` seconds.  ``SIGTERM`` requests a graceful drain:
finish the chunk in flight, release any held leases, retire the worker
row, exit.

Failure accounting: a chunk that fails execution releases its lease
(claimable by anyone, attempt count retained) until the retry budget
``config.max_chunk_retries`` is spent *across all workers*, at which
point it is quarantined — a terminal 'failed' chunk record, the same
first-class stratum the in-process retry loop feeds.  The worker keeps
no books of its own: the result shape check, the chunk records, the
retry budget and backoff, and the quarantine record all belong to the
job's :class:`~repro.engine.core.CampaignLedger`, the object
``run_campaign`` accounts through.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Any

from ..core.campaign import CampaignDb
from ..engine import executors as _executors
from ..engine.core import CampaignLedger, CampaignPlan, EngineConfig, \
    Injection
from .leases import LeaseManager, Lease
from .queue import CampaignQueue


def _default_worker_id() -> str:
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{os.urandom(3).hex()}")


class CampaignWorker:
    """One service worker bound to a CampaignDb *file*.

    ``chaos`` (a :class:`~repro.engine.chaos.HostChaos`) scripts
    host-level sabotage for tests: it is consulted at the documented
    points (claim, pre-record, every clock read, every heartbeat tick)
    and is ``None`` in production.
    """

    def __init__(self, db_path: str | os.PathLike, *,
                 worker_id: str | None = None,
                 lease_ttl: float = 10.0,
                 poll_s: float = 0.05,
                 chaos: Any = None) -> None:
        self.db_path = os.fspath(db_path)
        self.worker_id = worker_id or _default_worker_id()
        self.lease_ttl = float(lease_ttl)
        self.poll_s = float(poll_s)
        self.chaos = chaos
        self.chunks_executed = 0
        self._draining = threading.Event()
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None

    # -- clocks and control --------------------------------------------
    def _now(self) -> float:
        real = time.time()
        return self.chaos.now(real) if self.chaos is not None else real

    def drain(self) -> None:
        """Request graceful shutdown: finish the in-flight chunk,
        release held leases, exit the run loop."""
        self._draining.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM → drain (main thread only; no-op elsewhere)."""
        if threading.current_thread() is not threading.main_thread():
            return
        signal.signal(signal.SIGTERM, lambda *_: self.drain())

    # -- heartbeat -----------------------------------------------------
    def _heartbeat_loop(self) -> None:
        # sqlite3 connections are thread-bound: the heartbeat gets its
        # own, so deadline extensions never race the main loop's writes
        db = CampaignDb(self.db_path)
        leases = LeaseManager(db, now=self._now)
        try:
            interval = max(0.01, self.lease_ttl / 3.0)
            while not self._hb_stop.wait(interval):
                if (self.chaos is not None
                        and self.chaos.heartbeats_frozen()):
                    continue  # scripted freeze: deadlines lapse under us
                leases.extend(self.worker_id, self.lease_ttl)
                leases.heartbeat_worker(self.worker_id)
        finally:
            db.close()

    # -- main loop -----------------------------------------------------
    def run(self, max_jobs: int | None = None,
            idle_timeout: float = 0.0) -> int:
        """Process jobs until the queue is empty (then linger up to
        ``idle_timeout`` seconds for new ones), drained, or ``max_jobs``
        processed.  Returns the number of chunks this worker executed.
        """
        db = CampaignDb(self.db_path)
        queue = CampaignQueue(db, now=self._now)
        leases = LeaseManager(db, now=self._now)
        leases.register_worker(self.worker_id, os.getpid(),
                               socket.gethostname())
        self._hb_stop.clear()
        self._hb_thread = threading.Thread(
            target=self._heartbeat_loop, name="lease-heartbeat", daemon=True)
        self._hb_thread.start()
        jobs_done = 0
        idle_since: float | None = None
        try:
            while not self._draining.is_set():
                job_id = queue.next_job()
                if job_id is None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    if now - idle_since >= idle_timeout:
                        break
                    time.sleep(self.poll_s)
                    continue
                idle_since = None
                self._process_job(queue, leases, job_id)
                jobs_done += 1
                if max_jobs is not None and jobs_done >= max_jobs:
                    break
        finally:
            leases.release_all(self.worker_id)
            leases.retire_worker(
                self.worker_id,
                "drained" if self._draining.is_set() else "done")
            self._hb_stop.set()
            if self._hb_thread is not None:
                self._hb_thread.join(timeout=5.0)
            db.close()
        return self.chunks_executed

    def _process_job(self, queue: CampaignQueue, leases: LeaseManager,
                     job_id: int) -> None:
        try:
            backend, config = queue.load(job_id)
            plan = plan_campaign_for(backend, config)
        except Exception as exc:  # unrunnable payload: poison the job,
            queue.fail_job(job_id,  # don't let it wedge the queue
                           f"{type(exc).__name__}: {exc}")
            return
        ledger = CampaignLedger(backend, config, plan, queue.db)
        campaign_id = queue.activate(job_id, ledger)
        if campaign_id is None:
            return  # went terminal while we were planning
        backend.prepare()
        if queue.maybe_finish(job_id, ledger):
            return  # pre-converged by the filter census, or already done
        # Chaos-scripted workers claim one chunk at a time so fault
        # ordinals ("sigkill after the 2nd claim") stay exact; clean
        # workers batch claims and records at the engine's checkpoint
        # cadence, matching its commit cost per chunk.
        claim_n = 1 if self.chaos is not None \
            else max(1, config.commit_every)
        while not self._draining.is_set():
            if queue.job_state(job_id) != "running":
                return
            claimed: list[Lease] = []
            with queue.db.transaction():
                for _ in range(claim_n):
                    lease = leases.claim_next(campaign_id, self.worker_id,
                                              self.lease_ttl)
                    if lease is None:
                        break
                    claimed.append(lease)
            if not claimed:
                if queue.maybe_finish(job_id, ledger):
                    return
                # nothing claimable right now: peers hold live leases
                time.sleep(self.poll_s)
                continue
            done: list[tuple[Lease, list[Injection]]] = []
            for lease in claimed:
                if self.chaos is not None:
                    self.chaos.on_chunk_claimed()  # a due sigkill fires
                batch = self._execute_one(leases, ledger, lease)
                if batch is not None:
                    done.append((lease, batch))
                if self._draining.is_set():
                    break  # drain: record what finished, release the rest
            if done:
                # ONE transaction: each chunk record commits together
                # with its lease completion (a crash between them would
                # merely leave recorded chunks under expiring leases —
                # still convergent, the claim predicate skips them)
                with queue.db.transaction():
                    for lease, batch in done:
                        ledger.record(lease.chunk_index,
                                      [inj.row() for inj in batch],
                                      lease.attempts)
                        leases.complete(campaign_id, lease.chunk_index,
                                        self.worker_id)
                    leases.bump_worker(self.worker_id, done=len(done))
                self.chunks_executed += len(done)
            if queue.maybe_finish(job_id, ledger):
                return

    def _execute_one(self, leases: LeaseManager, ledger: CampaignLedger,
                     lease: Lease) -> list[Injection] | None:
        """Execute one leased chunk; return its batch, or None after
        routing a failure through release/quarantine."""
        index = lease.chunk_index
        try:
            batch = _executors.execute_chunk_timed(
                ledger.backend, ledger.plan.chunks[index],
                ledger.plan.seeds[index], ledger.config.chunk_timeout)
            ledger.validate(batch, index)
        except Exception as exc:
            cause = exc.cause if isinstance(exc, _executors.ChunkError) \
                else exc
            self._chunk_failed(leases, ledger, lease,
                               f"{type(cause).__name__}: {cause}")
            return None
        if self.chaos is not None:
            self.chaos.stall_before_record()  # scripted stale-worker gap
        return batch

    def _chunk_failed(self, leases: LeaseManager, ledger: CampaignLedger,
                      lease: Lease, error: str) -> None:
        """Release for retry, or quarantine once the cross-worker retry
        budget is spent (``lease.attempts`` counts failed executions:
        every earlier attempt of a reclaimed lease failed or expired)."""
        leases.bump_worker(self.worker_id, failures=1)
        campaign_id = ledger.report.campaign_id
        if ledger.exhausted(lease.attempts):
            with ledger.db.transaction():
                ledger.record(lease.chunk_index, [], lease.attempts, error)
                leases.fail(campaign_id, lease.chunk_index,
                            self.worker_id, error)
            return
        leases.release(campaign_id, lease.chunk_index, self.worker_id,
                       error)
        backoff = ledger.retry_delay(lease.attempts)
        if backoff > 0:
            time.sleep(backoff)


def plan_campaign_for(backend: Any, config: EngineConfig) -> CampaignPlan:
    """The worker's plan derivation — one seam for tests to break."""
    from ..engine.core import plan_campaign
    return plan_campaign(backend, config)


def worker_main(db_path: str, worker_kwargs: dict | None = None,
                idle_timeout: float = 0.0,
                handle_signals: bool = True) -> int:
    """Process entry point (top-level, so spawn can import it)."""
    worker = CampaignWorker(db_path, **(worker_kwargs or {}))
    if handle_signals:
        worker.install_signal_handlers()
    return worker.run(idle_timeout=idle_timeout)
