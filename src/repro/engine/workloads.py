"""Engine backends for the RSN, security, GPGPU and slicing workloads.

These complete the port started in :mod:`repro.engine.backends`: every
fault-effect campaign in the toolkit — dependability *and* security,
gate level to instruction level — now runs through
:func:`repro.engine.core.run_campaign`, so all of them inherit chunked
parallel execution, seeded sampling, Wilson early stop and streaming
CampaignDb persistence.  Kept separate from ``backends`` so process-pool
workers for the original four workloads do not pay these modules'
import cost.

All backends here follow the shared contract: ``run_batch`` is pure
with respect to prepared state, ``prepare()`` is idempotent, prepared
state is dropped on pickling (workers rebuild it), and per-point
randomness is derived from ``(seed, point index)`` so results are
byte-identical at any worker count and executor choice.

:class:`SlicingBackend` additionally exercises the engine's point-filter
stage: its no-activation / no-path skip rules run once against the
golden pass and resolve doomed injections as first-class ``masked``
outcomes without simulating them.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..circuit.levelize import fanout_cone
from ..circuit.netlist import Circuit
from ..faults.models import StuckAtFault
from . import lanes
from .core import Injection
from .executors import chunk_seed
from .lanes import DEFAULT_LANE_WIDTH

DETECTED = "detected"
UNDETECTED = "undetected"

#: Skip-rule tags carried in ``Injection.detail`` by filter stages.
SKIP_NO_ACTIVATION = "no_activation"
SKIP_NO_PATH = "no_path"
SKIP_DEAD_FLOP = "dead_flop"


def point_seed(seed: int, index: int) -> int:
    """Per-point RNG seed: chunk-size independent, worker independent."""
    return chunk_seed(seed, index)


# ----------------------------------------------------------------------
# RSN test / diagnosis
# ----------------------------------------------------------------------
class RsnDiagnosisBackend:
    """Per-fault signature campaigns on reconfigurable scan networks.

    Points are RSN faults (``SibStuck`` / ``MuxSelStuck`` /
    ``CellStuck``); each is injected into a fresh network from
    ``factory`` and driven through the golden-planned test, and the TDO
    stream becomes its signature.  Outcome is ``detected`` when the
    signature differs from the golden one — the quantity both
    ``coverage`` and ``build_signature_table`` are built from; the
    signature itself rides in ``detail`` for diagnosis.

    ``factory`` must be picklable for the process executor (a
    module-level function or ``functools.partial`` of one — not a
    lambda; unpicklable factories fall back to threads with a logged
    reason).
    """

    name = "rsn-diagnosis"
    fault_model = "rsn-structural"

    def __init__(self, factory: Callable[[], Any], faults: Sequence[Any],
                 test: Any) -> None:
        self.factory = factory
        self.faults = list(faults)
        self.test = test
        self.circuit_name = factory().name
        self.workload = f"rsn-test[{test.name}]"
        self._golden: tuple[int, ...] | None = None

    def enumerate_points(self) -> Sequence[Any]:
        return self.faults

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            self._golden = self._signature(None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden test
        return state

    def _signature(self, fault: Any | None) -> tuple[int, ...]:
        from ..rsn.test_gen import apply_test

        network = self.factory()
        network.reset()
        if fault is not None:
            network.inject(fault)
        return tuple(apply_test(network, self.test))

    @property
    def golden_signature(self) -> tuple[int, ...]:
        self.prepare()
        return self._golden

    def run_batch(self, points: Sequence[Any]) -> list[Injection]:
        out: list[Injection] = []
        for fault in points:
            signature = self._signature(fault)
            outcome = (DETECTED if signature != self._golden
                       else UNDETECTED)
            out.append(Injection(point=fault, location=fault.describe(),
                                 cycle=0, outcome=outcome, detail=signature))
        return out


# ----------------------------------------------------------------------
# laser fault injection
# ----------------------------------------------------------------------
class LaserFiBackend:
    """Laser-shot campaigns on a register floorplan.

    Points are ``(index, LaserShot)`` pairs; each shot is evaluated with
    its own jitter seed derived from ``(seed, index)``, so the same
    campaign reproduces shot for shot on any executor.  With a
    ``target`` cell the outcomes are the repeatability split of a
    targeted attack (``exact_hit`` / ``collateral`` / ``miss``);
    without one they classify the upset multiplicity (``single_bit`` /
    ``multi_bit`` / ``no_flip``) — the shot-grid sensitivity-map view.
    The flipped cell list rides in ``detail``.
    """

    name = "laser-fi"
    fault_model = "laser"

    def __init__(self, floorplan: Any, shots: Sequence[Any],
                 target: str | None = None, seed: int = 0,
                 jitter_um: float = 0.15) -> None:
        self.floorplan = floorplan
        self.shots = list(shots)
        self.target = target
        self.seed = seed
        self.jitter_um = jitter_um
        self.circuit_name = (f"floorplan-{floorplan.technology}"
                             f"[{len(floorplan.cells)} cells]")
        self.workload = (f"laser[{len(self.shots)} shots"
                         + (f", target {target}]" if target else "]"))

    def enumerate_points(self) -> Sequence[tuple[int, Any]]:
        return list(enumerate(self.shots))

    def prepare(self) -> None:  # shots are self-contained
        return None

    def run_batch(self, points: Sequence[tuple[int, Any]]) -> list[Injection]:
        from ..security.laser import fire  # lazy: keeps worker imports lean

        out: list[Injection] = []
        for index, shot in points:
            outcome_obj = fire(self.floorplan, shot,
                               jitter_um=self.jitter_um,
                               seed=self.seed * 100_003 + index)
            flipped = outcome_obj.flipped
            if self.target is not None:
                if not flipped or self.target not in flipped:
                    outcome = "miss"
                elif outcome_obj.single_bit:
                    outcome = "exact_hit"
                else:
                    outcome = "collateral"
            else:
                if not flipped:
                    outcome = "no_flip"
                else:
                    outcome = "single_bit" if outcome_obj.single_bit \
                        else "multi_bit"
            out.append(Injection(
                point=(index, shot),
                location=f"({shot.x_um:.2f},{shot.y_um:.2f})um",
                cycle=index, outcome=outcome, detail=list(flipped)))
        return out


# ----------------------------------------------------------------------
# side-channel trace collection
# ----------------------------------------------------------------------
class ScaTraceBackend:
    """Power-trace collection campaigns over an instrumented cipher.

    Points are ``(index, group, plaintext)`` triples; each encryption
    runs on an independent per-trace cipher obtained via the optional
    ``cipher.fork(seed)`` protocol (masked implementations draw a fresh
    mask stream per trace; stateless ciphers may return ``self``), so
    batches are pure and trace values are identical on every executor.
    ``group`` labels the TVLA population (``fixed`` / ``random``) or
    plain ``collected`` traces; the ``(cycles, power)`` observables ride
    in ``detail`` for CPA/TVLA to consume.
    """

    name = "sca-trace"
    fault_model = "side-channel"

    def __init__(self, cipher: Any, points: Sequence[tuple[int, str, bytes]],
                 seed: int = 0) -> None:
        self.cipher = cipher
        self.points = list(points)
        self.seed = seed
        self.circuit_name = type(cipher).__name__
        self.workload = f"sca[{len(self.points)} traces]"

    def enumerate_points(self) -> Sequence[tuple[int, str, bytes]]:
        return self.points

    def prepare(self) -> None:  # ciphers carry their own key schedule
        return None

    def run_batch(self,
                  points: Sequence[tuple[int, str, bytes]]) -> list[Injection]:
        out: list[Injection] = []
        for index, group, plaintext in points:
            fork = getattr(self.cipher, "fork", None)
            cipher = (fork(point_seed(self.seed, index))
                      if fork is not None else self.cipher)
            _ct, trace = cipher.encrypt(plaintext)
            out.append(Injection(
                point=(index, group, plaintext), location=f"trace{index}",
                cycle=index, outcome=group,
                detail=(trace.cycles, list(trace.power))))
        return out


# ----------------------------------------------------------------------
# GPGPU SEU sweeps
# ----------------------------------------------------------------------
class GpgpuSeuBackend:
    """Pipeline-register SEUs on a SIMT kernel ([25]/[40] campaigns).

    Points are ``(index, PipeRegFault)`` pairs; each run boots a fresh
    :class:`repro.gpgpu.simt.SimtCore`, injects one transient and
    compares the output region against the golden run (``masked`` /
    ``sdc``).  The golden outputs are rebuilt per worker in
    ``prepare()`` and never shipped.
    """

    name = "gpgpu-seu"
    fault_model = "seu"

    def __init__(self, kernel: Sequence[Any], inputs: Sequence[int],
                 faults: Sequence[Any], label: str = "kernel",
                 n_warps: int = 2, warp_size: int = 8,
                 lane_width: int = DEFAULT_LANE_WIDTH) -> None:
        self.kernel = list(kernel)
        self.inputs = list(inputs)
        self.faults = list(faults)
        self.n_warps = n_warps
        self.warp_size = warp_size
        self.lane_width = max(1, lane_width)
        self.circuit_name = f"simt-{label}"
        self.workload = f"gpgpu-seu[{len(self.faults)} transients]"
        self._golden: list[int] | None = None
        self._golden_issues: int = 0

    def enumerate_points(self) -> Sequence[tuple[int, Any]]:
        return list(enumerate(self.faults))

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            self._golden, self._golden_issues = self._run([])

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden kernel
        state["_golden_issues"] = 0
        return state

    def _run(self, faults: list[Any]) -> tuple[list[int], int]:
        from ..gpgpu.apps import _run

        return _run(self.kernel, self.inputs, faults,
                    n_warps=self.n_warps, warp_size=self.warp_size)

    @property
    def golden_issues(self) -> int:
        self.prepare()
        return self._golden_issues

    def run_batch(self, points: Sequence[tuple[int, Any]]) -> list[Injection]:
        if self.lane_width > 1:
            outcomes = self._forked_outcomes(points)
        else:
            outcomes = []
            for _index, fault in points:
                observed, _ = self._run([fault])
                outcomes.append("masked" if observed == self._golden
                                else "sdc")
        return [Injection(
            point=(index, fault),
            location=f"w{fault.warp}.l{fault.lane}.b{fault.bit}",
            cycle=fault.at_issue, outcome=outcome)
            for (index, fault), outcome in zip(points, outcomes)]

    def _boot(self):
        from ..gpgpu.simt import SimtCore

        core = SimtCore(self.kernel, n_warps=self.n_warps,
                        warp_size=self.warp_size)
        for i, value in enumerate(self.inputs):
            core.memory[i] = value
        return core

    def _forked_outcomes(self, points: Sequence[tuple[int, Any]]
                         ) -> list[str]:
        """The SIMT flavour of lane packing: the fault-free prefix is
        executed once per batch.  Points are visited in ``at_issue``
        order while a single golden core advances; at each injection
        slot the core is forked, the transient injected, and only the
        *remainder* of the kernel replayed.  A :class:`PipeRegFault`
        cannot act before its slot, so the fork is bit-exact with a
        from-scratch faulty run (the ``rr`` continuation keeps the warp
        schedule aligned)."""
        from ..gpgpu.simt import MAX_ISSUES

        order = sorted(range(len(points)), key=lambda i: points[i][1].at_issue)
        outcomes: list[str | None] = [None] * len(points)
        core = self._boot()
        rr = 0
        issued = 0
        alive = True
        budget = MAX_ISSUES  # the per-point path's implicit run cap
        for i in order:
            _index, fault = points[i]
            target = min(fault.at_issue, budget)
            while alive and issued < target:
                stepped = core.run(max_issues=target - issued, rr=rr)
                issued += stepped
                if stepped:
                    rr = (core.schedule_trace[-1] + 1) % len(core.warps)
                if issued < target:
                    alive = False  # kernel finished before the slot
            if not alive and issued <= fault.at_issue:
                outcomes[i] = "masked"  # fault slot never issues
                continue
            clone = core.fork()
            clone.inject(fault)
            clone.run(max_issues=budget - issued, rr=rr)
            observed = clone.memory[128:128 + clone.n_threads]
            outcomes[i] = "masked" if observed == self._golden else "sdc"
        return outcomes  # type: ignore[return-value]


# ----------------------------------------------------------------------
# dynamic-slicing FI campaigns (the first point-filter user)
# ----------------------------------------------------------------------
class SlicingBackend:
    """Gate-level (fault, cycle) campaigns with dynamic-slicing skips.

    Points are ``(fault, cycle)`` pairs classified by
    :func:`repro.safety.slicing._simulate_injection` against the golden
    trace.  With ``use_filter=True`` the two slicing skip rules run in
    the engine's point-filter stage: *no structural path* (the static
    fan-out cone reaches no observable — masked for every cycle) and
    *no activation* (the golden value at the fault site already equals
    the forced value at that cycle — machines identical, masked).  Both
    are provably lossless, so filtered campaigns classify byte-identical
    to unfiltered ones while skipping most of the simulation cost.

    ``lane_width`` > 1 packs the multi-cycle propagation of surviving
    state perturbations into bit lanes; widths above 64 ride the vector
    tier (``lane_backing`` picks ``"int"`` or ``"soa"``, auto-resolved
    when ``None`` — see :mod:`repro.sim.vector`).
    """

    name = "slicing"
    fault_model = "stuck-at"

    def __init__(self, circuit: Circuit, faults: Sequence[StuckAtFault],
                 stimuli: Sequence[Mapping[str, int]],
                 cycles: Sequence[int] | None = None,
                 use_filter: bool = True,
                 lane_width: int = DEFAULT_LANE_WIDTH,
                 lane_backing: str | None = None) -> None:
        self.circuit = circuit
        self.circuit_name = circuit.name
        self.faults = list(faults)
        self.stimuli = list(stimuli)
        self.cycles = list(cycles if cycles is not None
                           else range(len(self.stimuli)))
        if any(cyc < 0 for cyc in self.cycles):
            # a negative cycle would silently wrap into golden-run data
            # (differently per lane width) — reject it up front so every
            # path behaves identically
            raise ValueError(f"negative injection cycles in {self.cycles}")
        self.use_filter = use_filter
        self.lane_width = lanes.resolve_lane_width(lane_width)
        self.lane_backing = lane_backing
        self.workload = (f"slicing[{len(self.stimuli)} cycles, "
                         f"{'sliced' if use_filter else 'naive'}]")
        self._golden: tuple[list, list] | None = None
        self._lane_ctx: lanes.LaneContext | None = None

    def enumerate_points(self) -> Sequence[tuple[StuckAtFault, int]]:
        return [(fault, cyc) for fault in self.faults for cyc in self.cycles]

    def prepare(self) -> None:
        if self._golden is None:  # idempotent: re-run per worker process
            from ..safety.slicing import _golden_states

            self._golden = _golden_states(self.circuit, self.stimuli)
        if self.lane_width > 1 and self._lane_ctx is None:
            # the lane context replicates the golden pass already held in
            # ``_golden`` — no second golden simulation
            self._lane_ctx = lanes.build_context(
                self.circuit, self.stimuli, self.lane_width,
                golden=self._golden,
                backing=getattr(self, "lane_backing", None))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_golden"] = None  # workers re-run the golden pass
        state["_lane_ctx"] = None
        return state

    def filter_points(self, points: Sequence[tuple[StuckAtFault, int]]
                      ) -> tuple[list, list[Injection]]:
        """The slicing skip rules, engine-side (runs after prepare())."""
        if not self.use_filter:
            return list(points), []
        _states, values = self._golden
        observables = set(self.circuit.outputs)
        reach_cache: dict[str, bool] = {}

        def reaches_out(net: str) -> bool:
            if net not in reach_cache:
                cone = fanout_cone(self.circuit, [net], through_flops=True)
                reach_cache[net] = bool(cone & observables)
            return reach_cache[net]

        kept: list[tuple[StuckAtFault, int]] = []
        skipped: list[Injection] = []
        for fault, cyc in points:
            line = fault.line
            if not reaches_out(line.net):
                skipped.append(Injection(
                    point=(fault, cyc), location=fault.describe(), cycle=cyc,
                    outcome="masked", detail=SKIP_NO_PATH))
            elif (values[cyc].get(line.net, 0) & 1) == fault.value:
                skipped.append(Injection(
                    point=(fault, cyc), location=fault.describe(), cycle=cyc,
                    outcome="masked", detail=SKIP_NO_ACTIVATION))
            else:
                kept.append((fault, cyc))
        return kept, skipped

    def run_batch(self, points: Sequence[tuple[StuckAtFault, int]]
                  ) -> list[Injection]:
        if self.lane_width > 1:
            return self._run_batch_packed(points)
        from ..safety.slicing import _simulate_injection

        states, values = self._golden
        out: list[Injection] = []
        for fault, cyc in points:
            cls = _simulate_injection(self.circuit, fault, cyc, self.stimuli,
                                      values, states)
            out.append(Injection(point=(fault, cyc),
                                 location=fault.describe(), cycle=cyc,
                                 outcome=cls))
        return out

    def _inject_once(self, fault: StuckAtFault,
                     cyc: int) -> tuple[bool, dict[str, int]]:
        """The injection cycle of one transient, against golden data.

        Returns ``(failed_now, state_delta)``: whether a primary output
        already differs in the injection cycle, and the per-flop XOR the
        fault leaves on the state entering ``cyc + 1`` — exactly the
        first loop iteration of :func:`repro.safety.slicing
        ._simulate_injection` (including the flop-branch ``__flopD__``
        capture rule)."""
        from ..sim.fault_sim import faulty_values

        _states, values = self._golden
        good = values[cyc]
        vals = faulty_values(self.circuit, fault, good, 1)
        failed_now = any(vals.get(po, 0) != good.get(po, 0)
                         for po in self.circuit.outputs)
        if failed_now:
            return True, {}
        line = fault.line
        delta: dict[str, int] = {}
        for q, flop in self.circuit.flops.items():
            if not line.is_stem and line.sink == q:
                captured = vals.get(f"__flopD__{q}", vals[flop.d])
            else:
                captured = vals[flop.d]
            delta[q] = (captured ^ good[flop.d]) & 1
        return False, delta

    def _run_batch_packed(self, points: Sequence[tuple[StuckAtFault, int]]
                          ) -> list[Injection]:
        """Lane-packed path: each point's injection cycle runs 1-wide
        (fault forcing differs per lane), but the multi-cycle
        propagation of the surviving state perturbations — the dominant
        cost — is shared across up to ``lane_width`` lanes."""
        outcomes = lanes.packed_dispatch(
            points, self.lane_width, lambda p: p[1],
            lambda group: lanes.transient_outcomes(
                self._lane_ctx, group, self._inject_once))
        return [Injection(point=(fault, cyc), location=fault.describe(),
                          cycle=cyc, outcome=outcomes[i])
                for i, (fault, cyc) in enumerate(points)]


# ----------------------------------------------------------------------
# round batching: several campaigns behind one engine run
# ----------------------------------------------------------------------
class CompositeBackend:
    """Several independent backends fused into one campaign.

    Multi-round facades (``gpgpu.encoding_style_study`` comparing two
    kernel encodings, ``rsn.diagnostic_test`` evaluating a window of
    candidate tests) used to run one engine campaign per round, paying
    campaign setup — and, on the process executor, backend shipping —
    once per round.  A composite fuses the rounds: points are
    ``(tag, sub_point)`` pairs, ``run_batch`` routes each chunk slice to
    its part (so per-part lane packing still applies within a chunk),
    and callers recover per-round results by filtering injections on the
    tag (``Injection.location`` is prefixed with it for DB readability).

    Parts must follow the usual contract (pure ``run_batch``, idempotent
    ``prepare``, prepared state dropped on pickling); the composite then
    inherits picklability and process-executor support for free.
    """

    def __init__(self, parts: Sequence[tuple[str, Any]]) -> None:
        if not parts:
            raise ValueError("CompositeBackend needs at least one part")
        self.parts = list(parts)
        self._by_tag = dict(self.parts)
        if len(self._by_tag) != len(self.parts):
            raise ValueError("CompositeBackend tags must be unique")
        first = self.parts[0][1]
        self.name = f"composite[{first.name} x{len(self.parts)}]"
        self.circuit_name = first.circuit_name
        self.fault_model = first.fault_model
        self.workload = f"{len(self.parts)} rounds batched"

    @property
    def lane_width(self) -> int:
        return max(int(getattr(b, "lane_width", 1) or 1)
                   for _, b in self.parts)

    def part(self, tag: str) -> Any:
        return self._by_tag[tag]

    def enumerate_points(self) -> Sequence[tuple[str, Any]]:
        return [(tag, point) for tag, backend in self.parts
                for point in backend.enumerate_points()]

    def prepare(self) -> None:
        for _, backend in self.parts:
            backend.prepare()

    def run_batch(self, points: Sequence[tuple[str, Any]]) -> list[Injection]:
        out: list[Injection | None] = [None] * len(points)
        groups: dict[str, list[tuple[int, Any]]] = {}
        for pos, (tag, point) in enumerate(points):
            groups.setdefault(tag, []).append((pos, point))
        for tag, items in groups.items():
            batch = self._by_tag[tag].run_batch([p for _, p in items])
            for (pos, _), inj in zip(items, batch):
                out[pos] = Injection(
                    point=(tag, inj.point),
                    location=f"{tag}:{inj.location}",
                    cycle=inj.cycle, outcome=inj.outcome, detail=inj.detail)
        return out  # type: ignore[return-value]
