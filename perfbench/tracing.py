"""Outside-in layer tracing for the campaign benchmark.

Spans are recorded by *wrapping*, from here, the functions at each
layer boundary — no file of the program changes.  They are public
functions except the SEU golden run, the program-cache accessor
``compiled._cache`` and the lazy compile, which have no public entry.  A span holds its
name, start, end, parent span and the id of the campaign it belongs to
(shared by every span of one campaign); spans stay in memory and are
written out when the run ends.  A span's self time is its duration
less the part its child spans cover.

Layers are module names:

* ``engine.core``      — ``plan_campaign``; ``run_campaign`` itself is
  spanned by the benchmark around its own call, and every chunk handed
  to the accounting callback by an executor gets a ``core.account``
  span;
* ``engine.executors`` — ``plan_executor`` (the auto probe, including
  the chunks it executes) and the ``run_serial`` / ``run_thread`` /
  ``run_process`` strategies;
* ``engine.backends``  — ``prepare`` and ``run_batch`` of
  ``SeuBackend`` and ``PpsfpBackend``;
* ``engine.lanes``     — ``build_context`` and ``propagate``;
* ``sim.compiled``     — the program factories (``circuit_program``,
  ``step_program``, ``cone_program``, ``det_program`` and their vector
  and SoA variants) and the lazy ``compile()`` behind
  ``CompiledProgram.fn``;
* ``sim.sequential``   — the SEU golden run;
* ``sim.vector``       — ``resolve_backing``;
* ``core.campaign``    — ``CampaignDb.create_campaign`` /
  ``record_chunk`` / ``record_many`` and the commit at the end of each
  outermost ``transaction()``.

Pool workers run in other processes.  :class:`TracingBackend` is a
transparent wrapper in the style of ``engine.ChaosBackend``: it keeps
the campaign fingerprint, installs the same wrappers inside each worker
when it is unpickled there, and hands the worker's spans back to the
parent on the list its ``run_batch`` returns.  ``perf_counter`` reads
the system-wide monotonic clock, so worker and parent times compare.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

from repro.core.campaign import CampaignDb
from repro.engine import backends, core, executors, lanes
from repro.sim import compiled, vector


class Span:
    __slots__ = ("name", "start", "end", "parent", "campaign", "worker",
                 "attrs")

    def __init__(self, name: str, start: float, parent: int | None,
                 campaign: Any, worker: bool = False) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.campaign = campaign
        self.worker = worker
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.campaign,
                self.worker, self.attrs]


class Tracer:
    """An in-memory span recorder; ``enabled`` gates every wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.campaign: Any = None
        self.spans: list[Span] = []
        self.program_inserts = 0  # programs stored into circuit caches
        self._local = threading.local()
        self._lock = threading.Lock()  # span index vs append, across threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    stack[-1] if stack else None, self.campaign)
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def drain(self) -> list[list]:
        """Hand over (and forget) every recorded span, as plain rows."""
        rows = [span.row() for span in self.spans]
        self.spans = []
        return rows

    def merge(self, rows: list[list]) -> None:
        """Adopt rows drained in a worker; parents are re-indexed."""
        base = len(self.spans)
        for name, start, end, parent, campaign, _, attrs in rows:
            span = Span(name, start, None if parent is None else base + parent,
                        campaign, worker=True)
            span.end = end
            span.attrs = attrs
            self.spans.append(span)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.row()) + "\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _spanned(tracer: Tracer, name: str, fn: Callable,
             attrs: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if attrs is not None:
            span.attrs = attrs(args, result)
        return result
    return wrapper


def _factory(tracer: Tracer, fn: Callable) -> Callable:
    """A program factory: records whether the call stored new programs
    in the circuit's cache (a build) or was served from it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        before = tracer.program_inserts
        span = tracer.open("compiled.factory")
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        span.attrs = {"built": tracer.program_inserts - before,
                      "program": result is not None}
        return result
    return wrapper


def _counting_cache_type(tracer: Tracer) -> type:
    class CountingCache(dict):
        """A circuit program cache that counts stored programs (the
        cache also holds plain hit counters for not-yet-compiled sites,
        which are not programs)."""

        __slots__ = ()

        def __setitem__(self, key, value):
            dict.__setitem__(self, key, value)
            if not isinstance(value, int):
                tracer.program_inserts += 1

    return CountingCache


def _cache(tracer: Tracer, fn: Callable, cache_type: type) -> Callable:
    @functools.wraps(fn)
    def wrapper(circuit):
        cache = fn(circuit)
        if tracer.enabled and type(cache) is dict:
            cache = circuit._program_cache = cache_type(cache)
        return cache
    return wrapper


def _compile_property(tracer: Tracer, prop: property) -> property:
    getter = prop.fget

    def fn(self):
        if tracer.enabled and self._fn is None:
            span = tracer.open("compiled.compile")
            try:
                return getter(self)
            finally:
                tracer.close(span)
        return getter(self)
    return property(fn, doc=prop.__doc__)


def _transaction(tracer: Tracer, fn: Callable) -> Callable:
    """``CampaignDb.transaction`` with the commit of each outermost block
    spanned as ``campaign_db.commit``."""
    @contextmanager
    @functools.wraps(fn)
    def wrapper(self):
        if not tracer.enabled:
            with fn(self):
                yield self
            return
        inner = fn(self)
        inner.__enter__()
        try:
            yield self
        except BaseException:
            if not inner.__exit__(*sys.exc_info()):
                raise
        else:
            span = tracer.open("campaign_db.commit") \
                if self._tx_depth == 1 else None
            try:
                inner.__exit__(None, None, None)
            finally:
                if span is not None:
                    tracer.close(span)
    return wrapper


def _strategy(tracer: Tracer, fn: Callable) -> Callable:
    """An executor strategy: spans the run and every accounted chunk,
    and adopts the worker spans a :class:`TracingBackend` sent back."""
    @functools.wraps(fn)
    def wrapper(backend, chunks, seeds, account, *args, **kwargs):
        if not tracer.enabled:
            return fn(backend, chunks, seeds, account, *args, **kwargs)

        def traced_account(batch):
            rows = getattr(batch, "worker_spans", None)
            if rows:
                tracer.merge(rows)
            span = tracer.open("core.account")
            try:
                return account(batch)
            finally:
                tracer.close(span)

        span = tracer.open("executors.run")
        span.attrs = {"strategy": fn.__name__}
        try:
            return fn(backend, chunks, seeds, traced_account, *args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _patches(tracer: Tracer, parent: bool) -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, replacement)`` for every wrapped function.

    Parent-only patches cover the engine's planning and dispatch, which
    never run inside a pool worker."""
    def batch_attrs(args, result):
        return {"kind": args[0].name,
                "packed": getattr(args[0], "lane_width", 1) > 1}

    def propagate_attrs(args, result):
        ctx, _, start, n_lanes = args[:4]
        return {"lanes": n_lanes, "width": ctx.width,
                "cycles": ctx.n_cycles - start}

    out: list[tuple[Any, str, Any]] = []
    for cls in (backends.SeuBackend, backends.PpsfpBackend):
        out.append((cls, "prepare", _spanned(
            tracer, "backends.prepare", cls.prepare)))
        out.append((cls, "run_batch", _spanned(
            tracer, "backends.run_batch", cls.run_batch, batch_attrs)))
    out += [
        (backends, "_golden_run", _spanned(
            tracer, "sequential.golden_run", backends._golden_run)),
        (lanes, "build_context", _spanned(
            tracer, "lanes.build_context", lanes.build_context)),
        (lanes, "propagate", _spanned(
            tracer, "lanes.propagate", lanes.propagate, propagate_attrs)),
        (vector, "resolve_backing", _spanned(
            tracer, "vector.resolve_backing", vector.resolve_backing,
            lambda args, result: {"backing": result})),
        (compiled, "_cache", _cache(tracer, compiled._cache,
                                    _counting_cache_type(tracer))),
        (compiled.CompiledProgram, "fn", _compile_property(
            tracer, compiled.CompiledProgram.__dict__["fn"])),
    ]
    for prefix in ("", "vector_", "soa_"):
        for kind in ("circuit", "step", "cone", "det"):
            name = f"{prefix}{kind}_program"
            out.append((compiled, name,
                        _factory(tracer, getattr(compiled, name))))
    if not parent:
        return out
    out += [
        (CampaignDb, "create_campaign", _spanned(
            tracer, "campaign_db.create_campaign",
            CampaignDb.create_campaign)),
        (CampaignDb, "record_chunk", _spanned(
            tracer, "campaign_db.record_chunk", CampaignDb.record_chunk)),
        (CampaignDb, "record_many", _spanned(
            tracer, "campaign_db.record_many", CampaignDb.record_many,
            lambda args, result: {"rows": len(args[2])})),
        (CampaignDb, "transaction", _transaction(
            tracer, CampaignDb.transaction)),
        (core, "plan_campaign", _spanned(
            tracer, "core.plan_campaign", core.plan_campaign,
            lambda args, result: {"chunks": len(result.chunks)})),
        (core, "plan_executor", _spanned(
            tracer, "executors.plan_executor", core.plan_executor,
            lambda args, result: {"choice": result.name})),
    ]
    for name in ("run_serial", "run_thread", "run_process"):
        out.append((executors, name,
                    _strategy(tracer, getattr(executors, name))))
    return out


@contextmanager
def recording(tracer: Tracer, campaign: Any):
    """Trace one campaign: install the wrappers, enable the tracer and
    span the whole ``run_campaign`` call as ``core.run_campaign``."""
    installed = Installation(tracer)
    tracer.enabled, tracer.campaign = True, campaign
    try:
        with tracer.span("core.run_campaign"):
            yield tracer
    finally:
        tracer.enabled = False
        installed.remove()


class Installation:
    """Wrappers installed over the program; :meth:`remove` restores the
    original functions."""

    def __init__(self, tracer: Tracer, parent: bool = True) -> None:
        self._saved = []
        for owner, attr, replacement in _patches(tracer, parent):
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# ----------------------------------------------------------------------
# pool workers
# ----------------------------------------------------------------------
class SpanBatch(list):
    """A ``run_batch`` result that also carries the worker's spans."""

    def __init__(self, items, worker_spans) -> None:
        super().__init__(items)
        self.worker_spans = worker_spans


#: The tracer of a pool-worker process: installed (wrappers included)
#: the first time a :class:`TracingBackend` is unpickled there, and
#: enabled only while that backend runs, so untraced campaigns sharing
#: the persistent pool are not recorded.
_worker_tracer: Tracer | None = None


def _ensure_worker_tracer() -> Tracer:
    global _worker_tracer
    if _worker_tracer is None:
        _worker_tracer = Tracer()
        Installation(_worker_tracer, parent=False)
    return _worker_tracer


class TracingBackend:
    """Transparent wrapper that traces a backend inside pool workers.

    Identity attributes (and the lane width) mirror the wrapped backend,
    so the campaign fingerprint, chunking and outcomes are unchanged.
    In the parent process it only delegates: the parent's wrappers are
    installed by the benchmark."""

    def __init__(self, inner: Any, campaign: Any) -> None:
        self.inner = inner
        self.campaign = campaign
        self.name = inner.name
        self.circuit_name = inner.circuit_name
        self.fault_model = inner.fault_model
        self.workload = inner.workload
        self.lane_width = getattr(inner, "lane_width", 1)
        self._parent_pid = os.getpid()

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if os.getpid() != self._parent_pid:
            _ensure_worker_tracer()

    def enumerate_points(self):
        return self.inner.enumerate_points()

    @contextmanager
    def _recording(self):
        tracer = _worker_tracer if os.getpid() != self._parent_pid else None
        if tracer is None:
            yield None
            return
        tracer.enabled, tracer.campaign = True, self.campaign
        try:
            yield tracer
        finally:
            tracer.enabled = False

    def prepare(self) -> None:
        with self._recording():
            self.inner.prepare()

    def run_batch(self, points):
        with self._recording() as tracer:
            result = self.inner.run_batch(points)
        if tracer is None:
            return result
        return SpanBatch(result, tracer.drain())


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(spans: list[Span], reports: list, n_campaigns: int
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer figures as ``name -> (value, unit)``: means per traced
    campaign, except ratios, which are taken over the totals.  Times sum
    over every process, so on a pool workload they measure busy time,
    which can exceed wall time."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) \
                + span.duration

    def ancestors(span: Span):
        while span.parent is not None:
            span = spans[span.parent]
            yield span

    def self_time(i: int) -> float:
        return spans[i].duration - children.get(i, 0.0)

    def is_build(span: Span) -> bool:
        return span.name == "compiled.compile" or (
            span.name == "compiled.factory" and span.attrs["built"] > 0)

    t: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        t[key] = t.get(key, 0.0) + value

    for i, span in enumerate(spans):
        name, dur = span.name, span.duration
        if name in ("core.run_campaign", "core.account"):
            add("core.self_s", self_time(i))
        elif name == "core.plan_campaign":
            add("core.plan_s", dur)
            add("core.chunks", span.attrs["chunks"])
        elif name == "executors.plan_executor":
            add("executors.plan_s", dur)
        elif name == "executors.run":
            if span.attrs["strategy"] != "run_serial":
                add("executors.wait_s", self_time(i))
        elif name == "backends.prepare":
            add("backends.prepare_s", dur)
            add("backends.prepare_calls", 1)
        elif name == "backends.run_batch":
            add("backends.run_batch_s", dur)
            add("backends.run_batch_calls", 1)
            if span.attrs["packed"]:
                add("lanes.marshal_s", dur)
            if span.attrs["kind"] == "ppsfp":
                add("fault_sim.detect_s", dur)
        elif name == "lanes.build_context":
            add("lanes.build_context_s", dur)
        elif name == "lanes.propagate":
            add("lanes.propagate_s", dur)
            add("lanes.propagate_calls", 1)
            add("lanes.occupied", span.attrs["lanes"])
            add("lanes.offered", span.attrs["width"])
            add("lanes.cycles_simulated", span.attrs["cycles"])
            batch = next((a for a in ancestors(span)
                          if a.name == "backends.run_batch"), None)
            if batch is not None and batch.attrs["packed"]:
                add("lanes.marshal_s", -dur)
        elif name == "sequential.golden_run":
            add("sequential.golden_run_s", dur)
        elif name == "vector.resolve_backing":
            add(f"vector.backing.{span.attrs['backing']}", 1)
        elif name.startswith("campaign_db."):
            if name == "campaign_db.commit":
                add("campaign_db.commits", 1)
            elif name == "campaign_db.record_many":
                add("campaign_db.rows", span.attrs["rows"])
            if not any(a.name.startswith("campaign_db.")
                       for a in ancestors(span)):
                add("campaign_db.write_s", dur)
        if span.name == "compiled.factory" and not any(
                a.name == "compiled.factory" for a in ancestors(span)):
            add("compiled.factory_calls", 1)
            add("compiled.programs_built", span.attrs["built"])
            if span.attrs["program"] and not span.attrs["built"]:
                add("compiled.cache_hits", 1)
        if is_build(span) and not any(is_build(a) for a in ancestors(span)):
            add("compiled.build_s", dur)
            if any(a.name == "backends.run_batch"
                   and a.attrs["kind"] == "ppsfp" for a in ancestors(span)):
                add("fault_sim.detect_s", -dur)
    if worker_spans := [s for s in spans if s.worker and s.parent is None]:
        t["executors.worker_busy_s"] = sum(s.duration for s in worker_spans)
    for report in reports:
        add("executors.retried_chunks", report.retried_chunks)
        add(f"executors.choice.{report.executor}", 1)

    n = max(1, n_campaigns)
    out = {key: (t.get(key, 0.0) / n, "s" if key.endswith("_s") else "count")
           for key in PER_CAMPAIGN}
    offered = t.get("lanes.offered", 0.0)
    out["lanes.occupancy"] = (
        t.get("lanes.occupied", 0.0) / offered if offered else 0.0, "ratio")
    calls = t.get("compiled.factory_calls", 0.0)
    out["compiled.cache_hit_ratio"] = (
        t.get("compiled.cache_hits", 0.0) / calls if calls else 0.0, "ratio")
    return out


#: Per-layer figures reported as means per traced campaign.
PER_CAMPAIGN = (
    "core.plan_s", "core.self_s", "core.chunks",
    "executors.plan_s", "executors.wait_s", "executors.worker_busy_s",
    "executors.retried_chunks", "executors.choice.serial",
    "executors.choice.thread", "executors.choice.process",
    "backends.prepare_s", "backends.prepare_calls",
    "backends.run_batch_s", "backends.run_batch_calls",
    "lanes.build_context_s", "lanes.propagate_s", "lanes.propagate_calls",
    "lanes.marshal_s", "lanes.cycles_simulated",
    "compiled.build_s", "compiled.programs_built", "compiled.factory_calls",
    "fault_sim.detect_s", "sequential.golden_run_s",
    "vector.backing.int", "vector.backing.soa",
    "campaign_db.write_s", "campaign_db.rows", "campaign_db.commits",
)
