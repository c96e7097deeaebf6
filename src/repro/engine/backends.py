"""Injection backends: adapters from each FI workload onto the engine.

Each backend owns the workload-specific physics (how to build the golden
reference, how to inject one point, how to classify the outcome) and
exposes the uniform :class:`repro.engine.core.InjectionBackend` surface.
``run_batch`` implementations are pure with respect to backend state
after :meth:`prepare`, so the engine may execute them from worker
threads in any order.  Every backend also pickles cleanly before
``prepare()`` (circuits drop their memoized caches on serialization)
and ``prepare()`` is idempotent, which is what the process-pool
executor needs: the backend ships to each worker once and rebuilds its
golden runs and caches locally.

Since the engine grew chunk-level fault tolerance, purity and
idempotence carry one more obligation: execution is **at-least-once**.
A chunk whose worker died, hung past ``chunk_timeout`` or raised is
re-executed — possibly in the parent process, after another
``prepare()`` — and a checkpointed campaign re-executes any chunk whose
record never committed.  A backend must therefore produce the same
injections for the same points on every execution and must not
accumulate observable side effects across ``run_batch`` calls; all
backends below satisfy this by construction (their mutable state is
golden-run caches keyed only by the immutable workload).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..autosoc.apps import Application
from ..autosoc.fi import SocInjection, run_injection
from ..autosoc.soc import SocConfig
from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from ..sim.fault_sim import _batch_goods, _batched_detection, _observe_nets
from ..sim.logic import mask_of, simulate
from ..soft_error.seu import _golden_run, inject_seu
from . import lanes
from .core import Injection
from .lanes import DEFAULT_LANE_WIDTH

DETECTED = "detected"
UNDETECTED = "undetected"


class PpsfpBackend:
    """Gate-level stuck-at PPSFP over one or more packed pattern batches.

    Injection points are the faults; each fault is simulated against the
    pattern batches in order with fault dropping (first detecting batch
    wins).  The fan-out-cone cache on the circuit makes repeat visits to
    a fault site O(1), so batches after the first cost a dict lookup per
    surviving fault instead of a BFS plus a topo-order scan.

    Large pattern payloads ship via the engine's temp-file channel: when
    the pickled batches cross :data:`repro.engine.executors
    .SHIP_BYTES_MIN`, ``__getstate__`` parks them once in a
    :class:`~repro.engine.executors.ShippedBlob` and every subsequent
    pickle of the backend (probe, campaign payload, thread fallback)
    carries only the file reference; workers reload them lazily in
    ``prepare()``.
    """

    name = "ppsfp"
    fault_model = "stuck-at"

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault],
        batches: Sequence[tuple[Mapping[str, int], int]],
        state: Mapping[str, int] | None = None,
        full_scan: bool = True,
        drop_detected: bool = True,
    ) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.workload = f"ppsfp[{len(batches)} batches]"
        self.faults = list(faults)
        self.batches = list(batches)
        self.state = state
        self.full_scan = full_scan
        self.drop_detected = drop_detected
        self._goods: list[tuple[dict[str, int], int]] = []
        self._offsets: list[int] = []
        self._observe: tuple[str, ...] = ()
        self._batches_blob = None  # ShippedBlob once patterns ship
        self._ship_memo: tuple | None = None  # (src, len, blob) — parent only
        self.n_patterns = sum(n for _, n in batches)

    def enumerate_points(self) -> Sequence[StuckAtFault]:
        return self.faults

    def prepare(self) -> None:
        if self.batches is None:  # shipped patterns: load once per worker
            self.batches = self._batches_blob.load()
        if self._goods:  # idempotent: re-run per process-pool worker
            return
        self._goods, self._offsets, _ = _batch_goods(
            self.circuit, self.batches, self.state)
        self._observe = _observe_nets(self.circuit, self.full_scan)

    def __getstate__(self) -> dict:
        """Prepared state (good-machine values, observe list) is dropped:
        process-pool workers rebuild it via their own ``prepare()``.

        Pattern batches past the shipping threshold are parked in a temp
        file once and replaced by the blob reference.  The ship verdict
        (including "too small") is memoized against the batches object
        and its length, so repeated pickles of the same backend — probe,
        payload, thread fallback — neither re-measure nor re-park, while
        replacing or resizing ``batches`` re-ships fresh patterns
        instead of forwarding a stale snapshot.  (In-place mutation of
        an individual pattern dict is not detected — batches are
        treated as frozen once a campaign has pickled them.)"""
        from .executors import ship_if_large

        state = self.__dict__.copy()
        state["_goods"] = []
        state["_offsets"] = []
        state["_observe"] = ()
        state["_ship_memo"] = None  # parent-side memo never travels
        batches = self.batches
        if batches is None:  # unprepared clone: forward the blob as-is
            return state
        memo = self._ship_memo
        if memo is not None and memo[0] is batches and memo[1] == len(batches):
            blob = memo[2]
        else:
            blob, _ = ship_if_large(batches)
            self._ship_memo = (batches, len(batches), blob)
            self._batches_blob = blob
        if blob is not None:
            state["batches"] = None
            state["_batches_blob"] = blob
        else:
            state["_batches_blob"] = None
        return state

    def run_batch(self, points: Sequence[StuckAtFault]) -> list[Injection]:
        out: list[Injection] = []
        for fault in points:
            acc = _batched_detection(self.circuit, fault, self._goods,
                                     self._offsets, self._observe,
                                     self.drop_detected)
            out.append(Injection(
                point=fault, location=fault.describe(), cycle=0,
                outcome=DETECTED if acc else UNDETECTED, detail=acc))
        return out


class SeuBackend:
    """Sequential SEU flop flips over a stimulus workload.

    Points are ``(flop, cycle)`` pairs; outcomes are the classic
    masked / latent / failure split of :func:`repro.soft_error.seu
    .inject_seu` against a shared golden run.

    ``lane_width`` > 1 (the default) packs that many points into one
    sequential run via :mod:`repro.engine.lanes`: bit-lane *i* carries
    fault instance *i* and outcomes come back per lane by XOR against
    the golden trace — byte-identical to the per-point path, ~W× fewer
    circuit evaluations.  ``lane_width=1`` keeps the per-point
    :func:`inject_seu` path for parity testing.  Widths above 64 run on
    the vector tier: packed big ints by default, the level-batched SoA
    kernel via ``lane_backing="soa"`` (auto from ~1k lanes on circuits
    with wide levels) — see :mod:`repro.sim.vector` for the crossovers
    and overrides.  Without numpy they degrade to 64 with a
    logged warning.  Outcomes are byte-identical at every width and
    backing.

    ``skip_dead_flops=True`` opts into the engine's point-filter stage:
    a flop whose single-cycle fan-out cone reaches no primary output and
    no flop D input cannot change the observable trace or the next
    state, so every injection on it is provably ``masked`` — the same
    lossless skip-rule machinery :class:`repro.engine.workloads
    .SlicingBackend` uses, reused for dead state bits.  Verdicts are
    cached per flop on the backend, so repeated campaigns on the same
    instance never recompute a fan-out cone.
    """

    name = "seu"
    fault_model = "seu"

    def __init__(
        self,
        circuit: Circuit,
        stimuli: Sequence[Mapping[str, int]],
        targets: Sequence[str] | None = None,
        cycles: Sequence[int] | None = None,
        skip_dead_flops: bool = False,
        lane_width: int = DEFAULT_LANE_WIDTH,
        lane_backing: str | None = None,
    ) -> None:
        if not circuit.flops:
            raise ValueError(f"{circuit.name} has no flops to upset")
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.stimuli = list(stimuli)
        self.workload = f"seu[{len(self.stimuli)} cycles]"
        self.targets = list(targets if targets is not None else circuit.flops)
        self.cycles = list(cycles if cycles is not None
                           else range(len(self.stimuli)))
        self.skip_dead_flops = skip_dead_flops
        self.use_filter = skip_dead_flops  # engine filter-stage gate
        # resolved here, before the engine chunks points, so parent and
        # process-pool workers agree on the effective width
        self.lane_width = lanes.resolve_lane_width(lane_width)
        self.lane_backing = lane_backing
        self._golden: tuple | None = None
        self._lane_ctx: lanes.LaneContext | None = None
        self._dead_flops: dict[str, bool] = {}  # flop -> cone verdict cache

    def enumerate_points(self) -> Sequence[tuple[str, int]]:
        return [(flop, cyc) for flop in self.targets for cyc in self.cycles]

    def filter_points(self, points: Sequence[tuple[str, int]]
                      ) -> tuple[list, list[Injection]]:
        """Resolve injections on dead flops as ``masked`` without
        simulating them (only when ``skip_dead_flops`` is set)."""
        if not self.skip_dead_flops:
            return list(points), []
        from ..circuit.levelize import fanout_cone
        from .workloads import SKIP_DEAD_FLOP

        observables = set(self.circuit.outputs)
        d_nets = {flop.d for flop in self.circuit.flops.values()}
        dead = self._dead_flops  # structural verdicts survive campaigns

        def is_dead(flop: str) -> bool:
            if flop not in dead:
                cone = fanout_cone(self.circuit, [flop], through_flops=False)
                dead[flop] = not (cone & observables) and not (cone & d_nets)
            return dead[flop]

        kept, skipped = [], []
        for flop, cyc in points:
            if is_dead(flop):
                skipped.append(Injection(point=(flop, cyc), location=flop,
                                         cycle=cyc, outcome="masked",
                                         detail=SKIP_DEAD_FLOP))
            else:
                kept.append((flop, cyc))
        return kept, skipped

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            self._golden = _golden_run(self.circuit, self.stimuli)
        if self.lane_width > 1 and self._lane_ctx is None:
            self._lane_ctx = lanes.build_context(
                self.circuit, self.stimuli, self.lane_width,
                backing=getattr(self, "lane_backing", None))

    def __getstate__(self) -> dict:
        """The golden trace is dropped: workers re-run it in ``prepare``."""
        state = self.__dict__.copy()
        state["_golden"] = None
        state["_lane_ctx"] = None
        return state

    def run_batch(self, points: Sequence[tuple[str, int]]) -> list[Injection]:
        if self.lane_width > 1:
            return self._run_batch_packed(points)
        out: list[Injection] = []
        for flop, cyc in points:
            outcome = inject_seu(self.circuit, self.stimuli, flop, cyc,
                                 self._golden)
            out.append(Injection(point=(flop, cyc), location=flop,
                                 cycle=cyc, outcome=outcome))
        return out

    def _run_batch_packed(self, points: Sequence[tuple[str, int]]
                          ) -> list[Injection]:
        """Lane-packed path: up to ``lane_width`` points per sequential
        run (grouped by cycle, emitted in point order)."""
        outcomes = lanes.packed_dispatch(
            points, self.lane_width, lambda p: p[1],
            lambda group: lanes.seu_outcomes(self._lane_ctx, group))
        return [Injection(point=(flop, cyc), location=flop, cycle=cyc,
                          outcome=outcomes[i])
                for i, (flop, cyc) in enumerate(points)]


class SafetyBackend:
    """ISO 26262 classification of stuck-at faults under packed patterns.

    Points are the faults; outcomes are the ISO fault-class values
    (``safe`` / ``detected`` / ``residual`` / ``latent_detected``),
    computed by :func:`repro.safety.campaign.classify_injection_values`
    on mission vs detection output groups.
    """

    name = "safety"
    fault_model = "stuck-at"

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault],
        mission_outputs: Sequence[str],
        detection_outputs: Sequence[str],
        patterns: Mapping[str, int],
        n_patterns: int,
        state: Mapping[str, int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.workload = f"safety[{n_patterns} patterns]"
        self.faults = list(faults)
        self.mission_outputs = list(mission_outputs)
        self.detection_outputs = list(detection_outputs)
        self.patterns = patterns
        self.n_patterns = n_patterns
        self.state = state
        self._good: dict[str, int] = {}
        self._mask = mask_of(n_patterns)

    def enumerate_points(self) -> Sequence[StuckAtFault]:
        return self.faults

    def prepare(self) -> None:
        if not self._good:  # idempotent: re-run per worker process
            self._good = simulate(self.circuit, self.patterns,
                                  self.n_patterns, self.state)

    def __getstate__(self) -> dict:
        """Good-machine values are dropped: workers re-simulate them."""
        state = self.__dict__.copy()
        state["_good"] = {}
        return state

    def run_batch(self, points: Sequence[StuckAtFault]) -> list[Injection]:
        from ..safety.campaign import classify_injection_values
        from ..sim.fault_sim import faulty_values

        out: list[Injection] = []
        for fault in points:
            bad = faulty_values(self.circuit, fault, self._good, self._mask)
            cls = classify_injection_values(
                self._good, bad, self._mask,
                self.mission_outputs, self.detection_outputs)
            out.append(Injection(point=fault, location=fault.describe(),
                                 cycle=0, outcome=cls.value))
        return out


class SocBackend:
    """SoC-level CPU/RAM transients on AutoSoC runs.

    Points are :class:`repro.autosoc.fi.SocInjection` descriptors; each
    batch boots a fresh SoC per injection (runs are independent, so
    batches parallelise trivially).  ``detail`` carries the lockstep
    detection latency when one was observed.
    """

    name = "autosoc"
    fault_model = "transient"

    def __init__(
        self,
        app: Application,
        config: SocConfig,
        injections: Sequence[SocInjection],
    ) -> None:
        self.app = app
        self.config = config
        self.circuit_name = f"autosoc-{config.value}"
        self.workload = app.name
        self.injections = list(injections)

    def enumerate_points(self) -> Sequence[SocInjection]:
        return self.injections

    def prepare(self) -> None:  # golden runs live inside run_injection
        return None

    def run_batch(self, points: Sequence[SocInjection]) -> list[Injection]:
        out: list[Injection] = []
        for injection in points:
            outcome, latency = run_injection(self.app, self.config, injection)
            if injection.kind == "cpu":
                location = f"cpu:{injection.unit}.bit{injection.bit}"
            else:
                location = f"ram:{injection.ram_offset}.bit{injection.bit}"
            out.append(Injection(point=injection, location=location,
                                 cycle=injection.cycle, outcome=outcome,
                                 detail=latency))
        return out


def ppsfp_result(report, n_patterns: int) -> Any:
    """Rebuild a :class:`repro.sim.fault_sim.FaultSimResult` from a
    PPSFP engine report (detection masks ride in ``detail``)."""
    from ..sim.fault_sim import FaultSimResult

    result = FaultSimResult(n_patterns=n_patterns)
    for inj in report.injections:
        if inj.outcome == DETECTED:
            result.detected[inj.point] = inj.detail
        else:
            result.undetected.append(inj.point)
    return result
