"""Unified fault-injection campaign engine (paper IV.A).

Every FI workload in the toolkit — gate-level PPSFP stuck-at, SEU flop
flips, ISO 26262 safety classification, SoC-level unit transients — used
to hand-roll its own serial injection loop, sampling policy and result
accounting.  This module is the one execution core behind all of them:

* an :class:`InjectionBackend` protocol: enumerate injection points, run
  one batch, classify outcomes;
* an optional **point-filter stage**: a backend may prove the outcome of
  some points from golden-run data alone (``filter_points``); those
  points are accounted as first-class outcomes without ever being
  simulated — the engine-level form of dynamic-slicing skip rules;
* chunked batch execution over a ``concurrent.futures`` worker pool with
  results accounted in deterministic chunk order — the same campaign
  yields bit-identical results at any worker count;
* seeded sampling of the injection space (Leveugle-style statistical
  campaigns) and optional statistical early stop: the campaign converges
  when the Wilson interval of the tracked outcome rate is narrower than
  the requested margin;
* streaming batched persistence of every injection into
  :class:`repro.core.campaign.CampaignDb`, so cross-campaign queries see
  all workloads in one place;
* **fault tolerance for the campaign itself**: every executed chunk is
  checkpointed to the database in crash-consistent transactions, so a
  killed campaign resumes from its last committed chunk
  (``run_campaign(resume=...)`` / :func:`resume_campaign`) with a
  byte-identical report; a failing or hung chunk is retried with
  bounded exponential backoff and eventually **quarantined** as a
  first-class ``failed`` stratum, while executor-level failures walk a
  recovery ladder (process → thread → serial) instead of aborting.

DAVOS-style iterative statistical injection, reduced to the smallest
core that every workload can share.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
import random
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

from ..core.campaign import CampaignDb
from ..core.stats import Interval, wilson_interval
from ..faults.sampling import sample_size
from . import executors as _executors
from .executors import EXECUTOR_CHOICES, ExecutorPlan, chunk_seed, plan_executor

log = logging.getLogger("repro.engine")


class _AccountingError(Exception):
    """An error raised *by* the accounting path (an ``on_chunk`` hook, a
    checkpoint flush) while an executor was delivering chunks.

    The executor strategies call the accounting callback directly, so
    without this tag an ``OSError`` from a hook would be indistinguishable
    from a pool failure in the recovery ladder — and fed to the retry
    loop after ``accounted`` already advanced, re-executing the wrong
    chunk and swallowing the error.  The ladder unwraps the tag and
    re-raises the original exception raw, as the accounting contract
    promises.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(f"{type(cause).__name__}: {cause}")
        self.cause = cause


@dataclass(frozen=True)
class Injection:
    """One executed injection: where, when, and how it ended.

    ``point`` is the backend-specific injection point (opaque to the
    engine); ``detail`` carries backend extras (detection masks, latency)
    that are not persisted to the database.
    """

    point: Any
    location: str
    cycle: int
    outcome: str
    detail: Any = None

    def row(self) -> tuple[str, int, str]:
        """The (location, cycle, outcome) triple stored in CampaignDb."""
        return (self.location, self.cycle, self.outcome)


@runtime_checkable
class InjectionBackend(Protocol):
    """What a workload must provide to run on the engine.

    ``run_batch`` must be a pure function of the prepared backend state
    and the given points (no cross-batch mutation), so batches can run on
    worker threads — or in worker processes — in any order while the
    engine accounts them in deterministic chunk order.  For the process
    executor the backend must additionally pickle (``prepare()`` is
    re-run per worker, so prepared state need not ship) and be
    idempotent under repeated ``prepare()`` calls.

    Stochastic backends may provide an optional ``run_batch_seeded(
    points, rng)`` method instead; the engine then hands every chunk its
    own ``random.Random`` derived from ``(campaign seed, chunk index)``,
    which keeps results identical at any worker count and executor
    choice.

    Backends that can prove some outcomes from the golden run alone may
    provide an optional ``filter_points(points) -> (kept,
    skipped_outcomes)`` method.  The engine calls it exactly once, in
    the parent, after sampling and before chunking (``prepare()`` runs
    first so the filter can consult golden data); ``skipped_outcomes``
    is a list of ready-made :class:`Injection` results that are
    accounted — and persisted — as first-class outcomes without ever
    being executed.  Filters must be *lossless*: a skipped point's
    outcome must equal what ``run_batch`` would have produced.  A
    backend with a switchable filter may also expose a ``use_filter``
    attribute; when it is False the stage (including its parent-side
    ``prepare()``) is skipped entirely.
    """

    name: str
    circuit_name: str
    fault_model: str
    workload: str

    def enumerate_points(self) -> Sequence[Any]:
        """The full injection space, in a deterministic order."""
        ...

    def prepare(self) -> None:
        """One-time golden-run / cache setup before the first batch."""
        ...

    def run_batch(self, points: Sequence[Any]) -> list[Injection]:
        """Execute the given injection points; one Injection per point."""
        ...


@dataclass(frozen=True)
class EarlyStop:
    """Stop once the Wilson CI of ``outcome``'s rate is tight enough."""

    outcome: str = "failure"
    margin: float = 0.02
    confidence: float = 0.95
    min_injections: int = 50


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy; the backend defines *what*, this defines *how*.

    ``sample`` draws a seeded uniform sample of that many points from
    the enumerated space; ``None`` or a sample >= population means
    every point, in enumeration order unless ``shuffle`` asks for a
    seeded permutation (what early-stopped campaigns want — a prefix of
    a shuffle is an unbiased sample).  With ``workers`` > 1 chunks run
    on the chosen executor; results are identical to the serial run
    because accounting follows chunk order, and any chunks speculatively
    executed past an early-stop decision are discarded.

    ``executor`` picks the execution strategy (see
    :mod:`repro.engine.executors`): ``"serial"``, ``"thread"`` (GIL-bound
    — deterministic overlap, not CPU scaling), ``"process"`` (spawn-safe
    process pool: the backend ships to each worker once and true
    multicore scaling applies), or ``"auto"`` (default), which probes
    CPU count, backend picklability and per-batch cost, and falls back
    thread-/serial-wards with a logged reason instead of crashing.

    ``reuse_pool`` (default True) keeps the process pool alive in a
    module-level registry between campaigns, so sweeps that run many
    campaigns back to back (``compare_configurations``-style studies)
    pay worker spawn and module imports once instead of per campaign;
    the campaign payload still ships fresh each time.  Set it False to
    restore the one-pool-per-campaign behaviour.

    ``max_chunk_retries`` bounds how often a *failing* chunk is re-run
    (with exponential backoff starting at ``retry_backoff_s``) before it
    is quarantined — by the parent in :func:`run_campaign`, and across
    all workers in the campaign service, which spends the same budget
    and backoff through :class:`CampaignLedger`.  ``chunk_timeout``
    (seconds, ``None`` = wait forever) declares a dispatched chunk hung
    when its result is overdue — the pool is abandoned, execution
    degrades one rung of the recovery ladder, and the chunk is retried
    like any other failure (parent-side retries run against the same
    deadline, so a deterministic hang quarantines instead of blocking
    the campaign).  ``commit_every`` is the chunk-checkpoint cadence:
    every commit is a crash-consistent batch of per-chunk records that
    ``resume=`` can restart from (service workers batch their claims
    and records at the same cadence).
    """

    batch_size: int = 64
    workers: int = 1
    sample: int | None = None
    shuffle: bool = False
    seed: int = 0
    early_stop: EarlyStop | None = None
    commit_every: int = 4  # chunk checkpoints per CampaignDb commit
    executor: str = "auto"
    reuse_pool: bool = True
    max_chunk_retries: int = 2
    chunk_timeout: float | None = None
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_CHOICES:
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"pick one of {EXECUTOR_CHOICES}")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")


@dataclass(frozen=True)
class QuarantinedChunk:
    """A chunk whose execution kept failing and was excluded.

    Quarantine is the harness-fault analogue of the filter stage: a
    first-class ``failed`` stratum of the campaign — its points were
    neither executed nor silently dropped, and the report says so —
    rather than one bad chunk poisoning everything else.  A later
    ``resume=`` of the campaign re-executes quarantined chunks.
    """

    index: int
    n_points: int
    attempts: int
    error: str


@dataclass
class CampaignReport:
    """Aggregated engine output, common to every backend.

    ``injections`` holds executed points; ``skipped`` holds points the
    backend's filter stage resolved from golden data alone.  Both are
    first-class outcomes: counts, rates and confidence intervals cover
    their union, so a filter only changes *cost*, never statistics.

    ``quarantined`` is the campaign's ``failed`` stratum: chunks whose
    execution kept failing (see :class:`QuarantinedChunk`).  Their
    points are excluded from counts and intervals — an unexecuted point
    has no outcome — but the stratum is reported, never hidden.
    ``resumed_chunks`` / ``retried_chunks`` count chunks replayed from a
    checkpoint and chunks recovered by the retry loop.
    """

    backend: str
    circuit: str
    fault_model: str
    workload: str
    injections: list[Injection] = field(default_factory=list)
    skipped: list[Injection] = field(default_factory=list)
    population: int = 0
    planned: int = 0
    converged: bool = False
    campaign_id: int | None = None
    elapsed_s: float = 0.0
    n_workers: int = 1
    executor: str = "serial"  # resolved strategy the campaign ran on
    quarantined: list[QuarantinedChunk] = field(default_factory=list)
    resumed_chunks: int = 0
    retried_chunks: int = 0

    @property
    def executed(self) -> int:
        return len(self.injections)

    @property
    def total(self) -> int:
        return len(self.injections) + len(self.skipped)

    @property
    def skip_fraction(self) -> float:
        return len(self.skipped) / self.total if self.total else 0.0

    @property
    def quarantined_points(self) -> int:
        """Points in chunks the engine gave up executing."""
        return sum(chunk.n_points for chunk in self.quarantined)

    @property
    def outcomes(self) -> dict[str, int]:
        acc: dict[str, int] = {}
        for inj in self.injections:
            acc[inj.outcome] = acc.get(inj.outcome, 0) + 1
        for inj in self.skipped:
            acc[inj.outcome] = acc.get(inj.outcome, 0) + 1
        return acc

    def count(self, outcome: str) -> int:
        n = sum(1 for inj in self.injections if inj.outcome == outcome)
        return n + sum(1 for inj in self.skipped if inj.outcome == outcome)

    def rate(self, outcome: str) -> float:
        return self.count(outcome) / self.total if self.total else 0.0

    def confidence_interval(self, outcome: str,
                            confidence: float = 0.95) -> Interval:
        return wilson_interval(self.count(outcome), self.total, confidence)

    @property
    def injections_per_second(self) -> float:
        return self.total / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def recommended_sample(self, margin: float = 0.05,
                           confidence: float = 0.95) -> int:
        """Leveugle bound for this campaign's population."""
        return sample_size(self.population, margin, confidence)

    def describe(self) -> str:
        """One-line human summary (what the examples print)."""
        counts = ", ".join(f"{k}={v}" for k, v in sorted(
            self.outcomes.items(), key=lambda kv: (-kv[1], kv[0])))
        skipped = (f" + {len(self.skipped)} filtered"
                   if self.skipped else "")
        resilience = []
        if self.resumed_chunks:
            resilience.append(f"{self.resumed_chunks} chunks resumed")
        if self.retried_chunks:
            resilience.append(f"{self.retried_chunks} chunks retried")
        if self.quarantined:
            resilience.append(
                f"{len(self.quarantined)} chunks quarantined "
                f"({self.quarantined_points} points failed)")
        suffix = f"; {', '.join(resilience)}" if resilience else ""
        return (f"campaign {self.backend}:{self.circuit} [{self.workload}] — "
                f"{self.executed} executed{skipped} of {self.population} "
                f"points on {self.executor} x{self.n_workers} "
                f"({self.injections_per_second:.0f} inj/s"
                f"{', converged early' if self.converged else ''}); "
                f"outcomes: {counts or 'none'}{suffix}")


def _chunked(points: Sequence[Any], size: int) -> list[Sequence[Any]]:
    return [points[i:i + size] for i in range(0, len(points), size)]


def stop_satisfied(stop: EarlyStop | None, accounted_total: int,
                   executed_hits: int, executed_total: int,
                   n_kept_planned: int, planned: int) -> bool:
    """The engine's convergence arithmetic, callable outside the run loop.

    ``accounted_total`` is every point with a known outcome so far
    (executed + filter-census); the filtered stratum has zero variance,
    so the executed sample's Wilson half-width is scaled by the kept
    stratum's share of the campaign.  :class:`CampaignLedger` makes
    this check after every accounted chunk, whether the chunk was just
    executed or replayed from a committed record — which is how a
    service run stops on the same chunk a serial run stops at.
    """
    if stop is None or accounted_total < stop.min_injections:
        return False
    if n_kept_planned == 0:
        return True  # the filter resolved every point: nothing uncertain
    if executed_total == 0:
        return False
    kept_weight = n_kept_planned / planned if planned else 0.0
    ci = wilson_interval(executed_hits, executed_total, stop.confidence)
    return (ci.width / 2) * kept_weight <= stop.margin


@dataclass(frozen=True)
class CampaignPlan:
    """The deterministic half of a campaign: everything derived from
    ``(backend, config)`` alone, before any execution policy applies.

    ``run_campaign`` builds one internally; the campaign service builds
    the identical plan *in every worker process* (same enumeration,
    sampling, filter and chunk partition — the fingerprint proves it),
    so chunks can be claimed by bare index across hosts and executed
    anywhere while staying byte-compatible with a serial run.
    """

    points: list[Any]
    skipped: list[Injection]
    chunks: list[Sequence[Any]]
    seeds: list[int]
    batch_size: int
    lane_width: int
    population: int
    planned: int
    fingerprint: str

    @property
    def n_kept(self) -> int:
        """Points that must actually execute (post-filter)."""
        return len(self.points)


def plan_campaign(backend: InjectionBackend,
                  config: EngineConfig) -> CampaignPlan:
    """Enumerate → (sample/shuffle) → filter → chunk, deterministically.

    Pure in ``(backend, config)``: the sampled point list depends only
    on ``config.seed``, the filter stage must be lossless and
    deterministic, and chunk seeds mix the campaign seed with the chunk
    index — so two processes (or two hosts) planning the same campaign
    get the same chunks and the same per-chunk RNG streams.  Runs the
    backend's ``prepare()`` when a filter needs golden-run data.
    """
    points = list(backend.enumerate_points())
    population = len(points)
    rng = random.Random(config.seed)
    if config.sample is not None and config.sample < population:
        points = rng.sample(points, config.sample)
    elif config.shuffle:
        points = rng.sample(points, population)
    planned = len(points)

    skipped: list[Injection] = []
    filter_points = getattr(backend, "filter_points", None)
    # backends with a switchable filter expose ``use_filter`` so a
    # disabled filter costs nothing (no parent-side prepare)
    if filter_points is not None and getattr(backend, "use_filter", True):
        backend.prepare()  # filters consult golden-run data
        kept, skipped_outcomes = filter_points(points)
        points = list(kept)
        skipped = list(skipped_outcomes)
        if len(points) + len(skipped) != planned:
            raise ValueError(
                f"{backend.name}.filter_points dropped points: kept "
                f"{len(points)} + skipped {len(skipped)} != {planned}")
    # Lane-aware chunk sizing (see
    # :func:`repro.engine.lanes.aligned_batch_size`): chunks larger than
    # one lane are rounded *down* to a lane multiple (no fragmented
    # trailing lane per chunk), and a still-default batch size is raised
    # to fill one vector-tier lane word.  Pure in the config, so a
    # resumed campaign recomputes the identical chunk partition.
    from .lanes import aligned_batch_size  # lanes imports core: defer
    lane_width = max(1, int(getattr(backend, "lane_width", 1) or 1))
    batch_size = aligned_batch_size(lane_width, config.batch_size,
                                    type(config).batch_size)
    chunks = _chunked(points, batch_size)
    seeds = [chunk_seed(config.seed, i) for i in range(len(chunks))]
    fingerprint = _campaign_fingerprint(backend, config, batch_size,
                                        lane_width, population, planned)
    return CampaignPlan(points=points, skipped=skipped, chunks=chunks,
                        seeds=seeds, batch_size=batch_size,
                        lane_width=lane_width, population=population,
                        planned=planned, fingerprint=fingerprint)


#: Ceiling on the exponential retry backoff (seconds).
RETRY_BACKOFF_CAP_S = 2.0


class CampaignLedger:
    """The books of one campaign: every accounting decision in one place.

    A ledger folds chunk results into a :class:`CampaignReport` strictly
    in chunk order (``accounted`` is the first chunk not yet folded),
    keeps the early-stop tally, and writes the campaign's
    :class:`CampaignDb` records: the campaign row with its filter
    census, per-chunk checkpoints, and quarantine records.
    :func:`run_campaign` feeds one from its executors; a campaign
    service worker uses one for its records, result checks and retry
    budget; and the service's completion check and report are ledgers
    replaying committed records — so a service run cannot disagree with
    a serial one on what a chunk produced, where the campaign converged,
    or how a failed chunk is recorded.
    """

    def __init__(self, backend: InjectionBackend, config: EngineConfig,
                 plan: CampaignPlan, db: CampaignDb | None = None,
                 on_chunk: Callable[[CampaignReport], None] | None = None
                 ) -> None:
        self.backend = backend
        self.config = config
        self.plan = plan
        self.db = db
        self.on_chunk = on_chunk
        self.report = CampaignReport(
            backend=backend.name,
            circuit=backend.circuit_name,
            fault_model=backend.fault_model,
            workload=backend.workload,
            skipped=plan.skipped,
            population=plan.population,
            planned=plan.planned,
            n_workers=max(1, config.workers),
        )
        self.accounted = 0  # index of the first chunk not yet accounted
        # executed chunks awaiting checkpoint: (index, rows, attempts,
        # error), committed as one transaction every ``commit_every``
        self._pending: list[tuple[int, list, int, str | None]] = []
        self._hits = 0  # executed injections with the early-stop outcome
        self._start = time.perf_counter()
        # a filter that resolves every point (or enough that the residual
        # uncertainty cannot exceed the margin) converges with zero
        # execution
        self.report.converged = bool(plan.skipped) and self.converged_now()

    # -- the campaign row ------------------------------------------------
    def create(self, executor: str) -> int:
        """Create the campaign row and its filter-census rows.

        Both land in ONE transaction (joining the caller's, if any): the
        campaign record exists iff its census rows do, so a crash here
        leaves nothing a resume or a replay could half-see.
        """
        backend, config, plan, db = self.backend, self.config, self.plan, \
            self.db
        with db.transaction():
            campaign_id = db.create_campaign(
                name=f"{backend.name}:{backend.circuit_name}",
                circuit=backend.circuit_name,
                fault_model=backend.fault_model,
                workload=backend.workload,
                params={
                    "batch_size": config.batch_size,
                    "chunk_size": plan.batch_size,
                    "workers": config.workers,
                    "executor": executor,
                    "lane_width": plan.lane_width,
                    "sample": config.sample,
                    "seed": config.seed,
                    "filtered": len(plan.skipped),
                    "early_stop": (config.early_stop.outcome
                                   if config.early_stop else None),
                    "fingerprint": plan.fingerprint,
                },
            )
            if plan.skipped:  # filtered outcomes are first-class rows
                db.record_many(campaign_id,
                               [inj.row() for inj in plan.skipped])
        self.report.campaign_id = campaign_id
        return campaign_id

    def open(self, campaign_id: int) -> None:
        """Attach to an existing campaign; its stored fingerprint must
        match this ledger's plan (same backend identity and config)."""
        if self.db is None:
            raise ValueError(
                "resume requires the CampaignDb the campaign was "
                "checkpointed to")
        stored = self.db.campaign_params(campaign_id).get("fingerprint")
        if stored != self.plan.fingerprint:
            raise ValueError(
                f"campaign {campaign_id} was checkpointed with a different "
                f"backend/config (fingerprint {stored!r} != "
                f"{self.plan.fingerprint!r}); resume needs the identical "
                "campaign")
        self.report.campaign_id = campaign_id

    # -- chunk results ---------------------------------------------------
    def converged_now(self) -> bool:
        """Is the overall outcome rate pinned down tightly enough?"""
        report = self.report
        return stop_satisfied(self.config.early_stop, report.total,
                              self._hits, report.executed,
                              self.plan.n_kept, self.plan.planned)

    def validate(self, batch: Any, index: int) -> None:
        """O(1) shape check on a chunk result: a malformed batch (a
        crashed deserialization, a corrupted return) becomes a chunk
        failure — retried, then quarantined — not corrupt accounting."""
        n_points = len(self.plan.chunks[index])
        if (not isinstance(batch, list) or len(batch) != n_points
                or (batch and not isinstance(batch[0], Injection))):
            got = (f"{type(batch).__name__}[{len(batch)}]"
                   if isinstance(batch, (list, tuple))
                   else type(batch).__name__)
            raise _executors.ChunkError(ValueError(
                f"malformed result for chunk {index}: expected "
                f"{n_points} Injection entries, got {got}"))

    def account(self, batch: list[Injection], attempts: int = 1,
                checkpoint: bool = True) -> bool:
        """Fold chunk ``accounted`` into the report, checkpointing it as
        run ``attempts`` times; True = converged.

        Early stop treats filtered points as a *census* of their stratum
        (known outcomes, zero variance): only the executed sample of the
        kept points is uncertain, and a running tally keeps the check
        O(batch), not O(history).
        """
        index = self.accounted
        self.validate(batch, index)
        self.accounted += 1
        report = self.report
        report.injections.extend(batch)
        stop = self.config.early_stop
        if stop is not None:
            self._hits += sum(1 for inj in batch
                              if inj.outcome == stop.outcome)
        if checkpoint and report.campaign_id is not None:
            self._pending.append((index, [inj.row() for inj in batch],
                                  attempts, None))
            if len(self._pending) >= max(1, self.config.commit_every):
                self.flush()
        if self.on_chunk is not None:
            self.on_chunk(report)
        report.converged = self.converged_now()
        return report.converged

    def guarded_account(self, batch: list[Injection]) -> bool:
        """:meth:`account` as handed to the executors: errors from the
        accounting path are tagged :class:`_AccountingError` so the
        recovery ladder re-raises them raw instead of mistaking them for
        chunk or pool failures (an ``OSError`` from a checkpoint flush
        must not burn a chunk's retry budget)."""
        try:
            return self.account(batch)
        except _executors.ChunkError:
            raise  # malformed batch: a chunk failure, retried as usual
        except Exception as exc:
            raise _AccountingError(exc) from exc

    # -- records ---------------------------------------------------------
    def record(self, index: int, rows: list[tuple[str, int, str]],
               attempts: int, error: str | None = None) -> None:
        """Write chunk ``index``'s record now: its rows (``done``) or,
        given an ``error``, a row-less quarantine record (``failed``)."""
        self.db.record_chunk(
            self.report.campaign_id, index, rows,
            seed=self.plan.seeds[index],
            status="done" if error is None else "failed",
            attempts=attempts, error=error)

    def flush(self) -> None:
        """Commit the pending chunk checkpoints as one transaction."""
        pending, self._pending = self._pending, []
        if pending:
            with self.db.transaction():
                for args in pending:
                    self.record(*args)

    def close(self) -> None:
        """Flush checkpoints, then (clean completion only) call the
        backend's optional ``campaign_finished`` hook: a backend may
        release campaign-scoped scratch there (e.g. ChaosBackend unlinks
        its cross-process attempt markers).  An aborted campaign never
        gets here and keeps the scratch — a resume may need it."""
        self.flush()
        finished = getattr(self.backend, "campaign_finished", None)
        if finished is not None:
            finished()
        self.report.elapsed_s = time.perf_counter() - self._start

    # -- retries and quarantine ------------------------------------------
    def exhausted(self, failures: int) -> bool:
        """Has a chunk that failed ``failures`` times spent its retry
        budget (``max_chunk_retries`` re-runs after the first failure)?"""
        return failures > self.config.max_chunk_retries

    def retry_delay(self, failures: int) -> float:
        """Backoff before re-running a chunk that failed ``failures``
        times: exponential from ``retry_backoff_s``, capped."""
        return min(RETRY_BACKOFF_CAP_S,
                   self.config.retry_backoff_s * 2 ** (failures - 1))

    def retry_or_quarantine(self, cause: BaseException) -> None:
        """Chunk ``accounted`` failed: bounded-backoff retries in the
        calling process (immune to pool state), then quarantine."""
        index = self.accounted
        chunk, seed = self.plan.chunks[index], self.plan.seeds[index]
        failures = 1
        error: BaseException = cause
        while not self.exhausted(failures):
            delay = self.retry_delay(failures)
            log.warning(
                "engine: chunk %d failed (%s: %s); retry %d/%d in the "
                "parent after %.2fs", index, type(error).__name__, error,
                failures, self.config.max_chunk_retries, delay)
            if delay > 0:
                time.sleep(delay)
            try:
                self.backend.prepare()
                # the retry honours chunk_timeout too: a deterministically
                # hung chunk must exhaust its budget and quarantine, not
                # block the campaign forever in the parent
                batch = _executors.execute_chunk_timed(
                    self.backend, chunk, seed, self.config.chunk_timeout)
                self.validate(batch, index)
            except Exception as exc:
                error = (exc.cause
                         if isinstance(exc, _executors.ChunkError) else exc)
                failures += 1
                continue
            self.report.retried_chunks += 1
            self.account(batch, attempts=failures + 1)
            return
        log.error(
            "engine: quarantining chunk %d (%d points) after %d failed "
            "execution(s) (%s: %s)", index, len(chunk), failures,
            type(error).__name__, error)
        error_text = f"{type(error).__name__}: {error}"
        self._quarantine(failures, error_text)
        if self.report.campaign_id is not None:
            # the campaign just proved unstable: checkpoint immediately
            self._pending.append((index, [], failures, error_text))
            self.flush()

    def _quarantine(self, attempts: int, error: str) -> None:
        index = self.accounted
        self.accounted += 1
        self.report.quarantined.append(QuarantinedChunk(
            index=index, n_points=len(self.plan.chunks[index]),
            attempts=attempts, error=error))

    # -- replay ----------------------------------------------------------
    def replay(self, quarantined: bool = True) -> None:
        """Walk the campaign's committed chunk records in chunk order
        through :meth:`account` — same early-stop arithmetic — without
        executing or re-checkpointing anything.

        The walk stops at convergence or at the first chunk without a
        record.  A ``failed`` record is accounted as a quarantined chunk
        and the walk carries on, as a serial run does; with
        ``quarantined=False`` it ends the walk instead, so a resume
        re-executes the quarantined chunk.
        """
        chunks = self.plan.chunks
        if self.report.converged or self.accounted >= len(chunks):
            return
        campaign_id = self.report.campaign_id
        records = self.db.chunk_records(campaign_id)
        rows = self.db.chunk_rows(campaign_id)
        while not self.report.converged and self.accounted < len(chunks):
            i = self.accounted
            record = records.get(i)
            if record is None:
                break
            if record.status != "done":
                if not quarantined:
                    break
                self._quarantine(record.attempts, record.error or "")
                continue
            chunk_rows = rows.get(i, [])
            if len(chunk_rows) != len(chunks[i]):
                raise ValueError(
                    f"campaign {campaign_id} checkpointed "
                    f"{len(chunk_rows)} rows for chunk {i} of "
                    f"{len(chunks[i])} points; the database does not "
                    "match this campaign")
            self.report.resumed_chunks += 1
            self.account([Injection(point=point, location=loc, cycle=cyc,
                                    outcome=out)
                          for point, (loc, cyc, out)
                          in zip(chunks[i], chunk_rows)],
                         checkpoint=False)


def _campaign_fingerprint(backend: InjectionBackend, config: EngineConfig,
                          batch_size: int, lane_width: int,
                          population: int, planned: int) -> str:
    """Identity of a campaign's *deterministic* inputs.

    Stored in the campaign's params at creation and re-derived on
    ``resume=``: everything that shapes the chunk partition or the
    outcomes is covered (backend identity, seed/sample/shuffle, the
    effective chunk size, lane width, early-stop policy, population),
    while execution policy that provably cannot change results —
    workers, executor choice, retry budget — is deliberately excluded,
    so a campaign checkpointed on one executor may resume on another.
    """
    stop = config.early_stop
    payload = json.dumps({
        "backend": backend.name,
        "circuit": backend.circuit_name,
        "fault_model": backend.fault_model,
        "workload": backend.workload,
        "seed": config.seed,
        "sample": config.sample,
        "shuffle": config.shuffle,
        "chunk_size": batch_size,
        "lane_width": lane_width,
        "early_stop": ([stop.outcome, stop.margin, stop.confidence,
                        stop.min_injections] if stop else None),
        "population": population,
        "planned": planned,
    }, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def run_campaign(
    backend: InjectionBackend,
    config: EngineConfig = EngineConfig(),
    db: CampaignDb | None = None,
    on_chunk: Callable[[CampaignReport], None] | None = None,
    resume: int | None = None,
) -> CampaignReport:
    """Run a campaign: enumerate → (sample) → filter → chunk → execute.

    Deterministic at any worker count and executor choice: the sampled
    point list depends only on ``config.seed``, chunks (and their
    per-chunk RNG seeds) are formed before dispatch, and both result
    accounting and the early-stop decision walk chunks in index order.
    ``on_chunk`` (if given) observes the report after each accounted
    chunk — the hook used for progress streaming; it always runs in the
    calling thread, as does all CampaignDb persistence.

    If the backend provides ``filter_points``, it runs exactly once here
    in the parent (after ``prepare()``), on the post-sampling point
    list; the outcomes it proves are accounted and persisted up front.
    Early stop treats them as a census — known outcomes with zero
    sampling variance — so the convergence check scales the executed
    sample's Wilson half-width by the kept stratum's share of the
    campaign; a filter that resolves every point converges the campaign
    before executing a single batch.

    With a ``db``, every executed chunk is checkpointed (rows + a chunk
    record keyed by ``(campaign_id, chunk_index)``) in crash-consistent
    batches of ``config.commit_every`` chunks.  ``resume=campaign_id``
    rebuilds the same point list and chunk partition from the config
    (the stored fingerprint guards against a mismatched backend or
    config), replays the contiguous prefix of committed chunks through
    the normal accounting path — early-stop and filter-census decisions
    replay identically — and executes only the remainder, so the
    returned report is byte-identical (outcomes, counts, intervals,
    convergence) to an uninterrupted run.  Chunks that were quarantined
    in the previous run are re-executed, and their records upgraded on
    success.

    Chunk failures (a backend raise, a malformed worker result, a
    result overdue past ``config.chunk_timeout``) are retried with
    bounded exponential backoff in the parent — on a fresh rung of the
    recovery ladder (process → thread → serial) when the pool itself
    broke or hung — and quarantined into ``report.quarantined`` after
    ``config.max_chunk_retries`` failed retries.  Errors raised by the
    accounting path itself (``on_chunk`` hooks, database writes) are
    *not* retried: they propagate and abort the campaign.
    """
    ledger = CampaignLedger(backend, config, plan_campaign(backend, config),
                            db=db, on_chunk=on_chunk)
    if resume is not None:
        ledger.open(resume)
        # the committed prefix replays; quarantined chunks re-execute
        ledger.replay(quarantined=False)
    elif db is not None:
        ledger.create(config.executor)
    _execute(ledger, resume is not None)
    ledger.close()
    return ledger.report


def _execute(ledger: CampaignLedger, resumed: bool) -> None:
    """Execute the chunks the ledger has not accounted yet.

    Resolves the executor over the *remaining* chunks (auto probes
    picklability and per-batch cost; any chunks it executed while
    probing are accounted first, exactly once), then drives the
    recovery ladder: run the chosen strategy; classify anything it
    raises as a chunk failure (retry in the parent, quarantine when the
    budget is spent) and/or an executor failure (degrade one rung), and
    re-enter from the first undelivered chunk — accounting is
    chunk-ordered, so ``ledger.accounted`` is exactly that index.
    Accounting-path errors propagate raw.
    """
    backend, config, report = ledger.backend, ledger.config, ledger.report
    chunks, seeds = ledger.plan.chunks, ledger.plan.seeds
    start = ledger.accounted
    if start < len(chunks) and not report.converged:
        try:
            plan = plan_executor(backend, chunks[start:], config,
                                 seeds[start:])
        except Exception as exc:
            # a probe crash is a chunk failure in disguise: start on the
            # ladder floor and let the retry loop deal with the chunk
            log.warning(
                "engine: executor auto-probe failed (%s: %s); starting "
                "on the serial rung", type(exc).__name__, exc)
            plan = ExecutorPlan("serial", "auto-probe failed")
    else:
        plan = ExecutorPlan(
            "serial",
            "pre-converged by filtered outcomes" if report.converged
            else ("resumed campaign already complete" if resumed
                  else "empty campaign"))
    if plan.reason:
        log.info("engine: executor=%s for %s:%s (%s)", plan.name,
                 backend.name, backend.circuit_name, plan.reason)
    report.executor = plan.name
    # The auto-probe's payload pickles the *sliced* (remaining) lists,
    # but process workers index them with absolute chunk indices — only
    # usable when the slice started at chunk 0.  On resume, drop it so
    # run_process re-pickles the full (backend, chunks, seeds) and a
    # resumed campaign executes exactly the chunks (and seeds) it claims.
    payload = plan.payload if start == 0 else None

    def degrade(strategy: str, reason: str) -> None:
        """Step down the recovery ladder (process → thread → serial);
        monotonic, so each degradation logs exactly once."""
        if report.executor != strategy:
            log.warning(
                "engine: %s executor failing; falling back to %s from "
                "chunk %d (%s)", report.executor, strategy,
                ledger.accounted, reason)
            report.executor = strategy

    try:
        for batch in plan.probe_batches or ():
            if ledger.account(batch):
                break
    except _executors.ChunkError as exc:
        ledger.retry_or_quarantine(exc.cause)

    while not report.converged and ledger.accounted < len(chunks):
        strategy = report.executor
        try:
            if strategy == "process":
                if payload is None:
                    # serialize here (if the auto probe didn't already)
                    # so pickling failures are distinguishable from pool
                    # failures — and from backend bugs, which propagate
                    try:
                        payload = pickle.dumps(
                            (backend, chunks, seeds),
                            protocol=pickle.HIGHEST_PROTOCOL)
                    except Exception as exc:
                        degrade("thread", f"backend not picklable "
                                f"({type(exc).__name__}: {exc})")
                        continue
                _executors.run_process(
                    backend, chunks, seeds, ledger.guarded_account,
                    config.workers, start=ledger.accounted, payload=payload,
                    reuse_pool=config.reuse_pool,
                    timeout=config.chunk_timeout)
            elif strategy == "thread":
                backend.prepare()
                _executors.run_thread(
                    backend, chunks, seeds, ledger.guarded_account,
                    config.workers, start=ledger.accounted,
                    timeout=config.chunk_timeout)
            else:
                backend.prepare()
                _executors.run_serial(backend, chunks, seeds,
                                      ledger.guarded_account,
                                      start=ledger.accounted)
        except _AccountingError as exc:
            raise exc.cause  # accounting-path errors propagate raw
        except _executors.ChunkTimeout as exc:
            # the hung task may never return; its pool is already
            # abandoned (persistent pools: evicted), so step down a rung
            # and retry the chunk in the parent
            degrade("thread" if strategy == "process" else "serial",
                    f"chunk {ledger.accounted} timed out after "
                    f"{config.chunk_timeout}s")
            ledger.retry_or_quarantine(exc)
        except (BrokenProcessPool, OSError) as exc:
            if strategy == "process":
                degrade("thread", f"process pool failed "
                        f"({type(exc).__name__}: {exc})")
            ledger.retry_or_quarantine(exc)
        except _executors.ChunkError as exc:
            ledger.retry_or_quarantine(exc.cause)


def resume_campaign(
    backend: InjectionBackend,
    campaign_id: int,
    config: EngineConfig = EngineConfig(),
    db: CampaignDb | None = None,
    on_chunk: Callable[[CampaignReport], None] | None = None,
) -> CampaignReport:
    """Resume a checkpointed campaign from its last committed chunk.

    ``backend`` and ``config`` must reconstruct the interrupted campaign
    exactly (same circuit, seed, sampling, chunking — the stored
    fingerprint is checked); ``db`` must be the database it checkpointed
    to.  Completed chunks are replayed from their records, the remainder
    (including any quarantined chunks) is executed, and the returned
    :class:`CampaignReport` is byte-identical to an uninterrupted run —
    early-stop decisions included.  Execution policy is free to differ:
    a campaign checkpointed from a process pool may resume serially.
    """
    return run_campaign(backend, config, db=db, on_chunk=on_chunk,
                        resume=campaign_id)
