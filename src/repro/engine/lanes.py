"""Lane-packed injection simulation: the temporal axis of bit-parallelism.

The packed-pattern trick that makes PPSFP cheap — one Python int carries
one net across *n* patterns — applies just as well across *injections*:
a chunk of up to ``DEFAULT_LANE_WIDTH`` injection points is simulated in
**one** sequential run where bit-lane *i* carries fault instance *i*.
All lanes share the stimulus (replicated bits), start from the golden
state, and diverge only when their own fault is injected, which for the
sequential fault models in this toolkit is a per-lane XOR of the flop
state (:meth:`repro.sim.sequential.SequentialSim.flip_state` with a
``pattern_mask``).  Outcomes come back per lane by XOR against the
replicated golden trace:

* **failure** — the lane's primary-output bits differ from golden in
  some cycle;
* **latent**  — outputs match but the lane's final state differs;
* **masked**  — neither.

The cost of a packed run is one circuit evaluation per cycle regardless
of lane count (Python bigint bitwise ops are width-insensitive at these
sizes), so a ``W``-lane run replaces ``W`` sequential resimulations.

Widths beyond 64 engage the **vector tier**: the packed word outgrows
the machine word and is carried by an arbitrary-precision int (big-int
ops stay near width-insensitive to very large widths), by a numpy
``uint64`` block array per net fed through the same compiled step
function, or — the default from ~1k lanes on circuits with wide
levels — by the structure-of-arrays kernel tier
(:class:`repro.sim.compiled.SoaStepProgram`), which holds the whole
net state in one 2-D block matrix and runs each topological level as a
handful of fused numpy calls.  The backing auto-picks per
:func:`repro.sim.vector.resolve_backing` (force with ``backing=`` /
``RESCUE_VECTOR_BACKING``).  Per-lane flips become index-computed XOR
masks into the packed word (for the SoA backing, one fancy-indexed XOR
into the state rows *and their complement mirror* — ``~x ^ b ==
~(x ^ b)``, so one write keeps the mirror invariant) and outcome
recovery is a vectorized XOR against the golden trace; all backings
are byte-identical to the 64-lane and 1-lane references.  Without
numpy installed, widths above 64 degrade to 64 with a one-time logged
warning (:func:`resolve_lane_width`).

Two front-ends are provided: :func:`seu_outcomes` (flip one flop at one
cycle — :class:`repro.engine.backends.SeuBackend`) and
:func:`transient_outcomes` (arbitrary injection-cycle physics supplied
by the backend, e.g. a transient stuck-at; the lane carries the
resulting *state perturbation* — :class:`repro.engine.workloads
.SlicingBackend`).  Both are provably lane-exact: each lane computes the
same boolean function of the same inputs as the per-point simulation,
so outcome multisets are byte-identical at every lane width.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..circuit.netlist import Circuit
from ..sim import compiled as _compiled
from ..sim import vector as _vector
from ..sim.logic import mask_of, simulate
from ..sim.sequential import SequentialSim
from .core import _chunked

log = logging.getLogger("repro.engine")

#: Default number of fault instances packed into one sequential run.
DEFAULT_LANE_WIDTH = 64


def resolve_lane_width(width: int) -> int:
    """Clamp a requested lane width to what the host supports.

    Widths above 64 belong to the vector tier, which is declared
    against numpy; without it they degrade to the classic 64-lane
    packing with a one-time logged warning.  (Outcomes are identical at
    every width, so degradation only costs throughput.)
    """
    width = max(1, int(width))
    if width > DEFAULT_LANE_WIDTH and not _vector.HAVE_NUMPY:
        _vector._warn_no_numpy(f"lane width {width} requested")
        return DEFAULT_LANE_WIDTH
    return width


def aligned_batch_size(lane_width: int, batch_size: int,
                       default_batch_size: int = DEFAULT_LANE_WIDTH) -> int:
    """The engine's effective chunk size for a lane-packing backend.

    Chunks are aligned *down* to a lane multiple so no chunk ships a
    ragged final lane group, and a still-default batch size is inflated
    to fill one vector-tier lane word (a 64-point chunk on a 256-lane
    backend would waste three quarters of every packed run).  The result
    is a pure function of ``(lane_width, configured batch size)`` — the
    chunk partition, and with it every checkpoint's chunk index, is
    recomputed identically when a campaign resumes.
    """
    size = max(1, batch_size)
    if lane_width > 1 and size > lane_width:
        size -= size % lane_width
    elif lane_width > 64 and size < lane_width \
            and batch_size == default_batch_size:
        size = lane_width
    return size

MASKED = "masked"
LATENT = "latent"
FAILURE = "failure"


def lane_groups(items: Sequence[Any], width: int) -> list[Sequence[Any]]:
    """Split ``items`` into consecutive groups of at most ``width`` —
    the engine's chunking rule, clamped to a sane width."""
    return _chunked(items, max(1, width))


def packed_dispatch(
    points: Sequence[Any],
    width: int,
    cycle_of: Callable[[Any], int],
    outcomes_fn: Callable[[list[Any]], list[str]],
) -> list[str]:
    """Group ``points`` into lanes and classify them, in point order.

    Points are visited by ascending injection cycle so each packed run
    starts at its group's earliest cycle (lanes are golden before their
    flip, so nothing earlier needs simulating), but the returned
    outcome list follows the original point order — what ``run_batch``
    must preserve for executor-identity.
    """
    order = sorted(range(len(points)), key=lambda i: cycle_of(points[i]))
    outcomes: list[str | None] = [None] * len(points)
    for group in lane_groups(order, width):
        got = outcomes_fn([points[i] for i in group])
        for i, outcome in zip(group, got):
            outcomes[i] = outcome
    return outcomes  # type: ignore[return-value]


@dataclass
class LaneContext:
    """Replicated golden-run data shared by every packed run.

    Built once per backend ``prepare()`` and never pickled (workers
    rebuild it): the stimulus and the golden PO trace replicated across
    ``width`` lanes, plus the 1-bit golden state *entering* each cycle
    (what a packed run starting mid-workload is seeded from) and the
    1-bit golden final state (the latent check reference).
    """

    circuit: Circuit
    width: int
    mask: int
    rep_stimuli: list[dict[str, int]]
    rep_trace: list[dict[str, int]]
    states: list[dict[str, int]]
    final_state: dict[str, int]
    #: ``"int"`` (packed big int — any width) or ``"soa"`` (the
    #: level-batched structure-of-arrays kernel).
    backing: str = "int"
    n_blocks: int = 1

    @property
    def n_cycles(self) -> int:
        return len(self.rep_stimuli)

    # Raw views aligned with the circuit's compiled StepProgram slots
    # (stimulus/trace/state tuples instead of dicts), built lazily on
    # the first compiled propagation and dropped if the program cache is
    # invalidated.  They let `propagate` drive the generated step
    # function directly — per-cycle dict packing/unpacking disappears.
    def raw_views(self, program) -> tuple:
        cached = getattr(self, "_raw", None)
        if cached is not None and cached[0] is program:
            return cached[1:]
        stim = [tuple(cyc.get(pi, 0) for pi in program.inputs)
                for cyc in self.rep_stimuli]
        trace = [tuple(cyc[po] for po in program.outputs)
                 for cyc in self.rep_trace]
        mask = self.mask
        states = [tuple(mask if st[q] else 0 for q in program.flop_qs)
                  for st in self.states]
        final = tuple(mask if self.final_state[q] else 0
                      for q in program.flop_qs)
        self._raw = (program, stim, trace, states, final)
        return stim, trace, states, final

    def raw_views_soa(self, program) -> tuple:
        """Matrix raw views for the SoA backing.

        The replicated golden data becomes dense uint64 matrices —
        ``stim[cycle]`` is the ``(n_inputs, n_blocks)`` slab assigned
        straight into the state matrix's PI rows, ``trace[cycle]`` the
        PO slab XORed against the gathered outputs, ``states[cycle]`` /
        ``final`` the flop slabs.  Built directly from the 1-bit
        golden data (every replicated word is all-zero or the lane
        mask), no big-int round trips.
        """
        cached = getattr(self, "_raw_soa", None)
        if cached is not None and cached[0] is program:
            return cached[1:]
        np = _vector.np
        ones = _vector.mask_array(self.width, self.n_blocks)
        zero = np.uint64(0)

        def mat(bit_rows):
            bits = np.asarray(bit_rows, dtype=bool)
            return np.where(bits[..., None], ones, zero)

        stim = mat([[bool(cyc.get(pi, 0)) for pi in program.inputs]
                    for cyc in self.rep_stimuli])
        trace = mat([[bool(cyc[po]) for po in program.outputs]
                     for cyc in self.rep_trace])
        states = mat([[bool(st[q]) for q in program.flop_qs]
                      for st in self.states])
        final = mat([bool(self.final_state[q]) for q in program.flop_qs])
        self._raw_soa = (program, stim, trace, states, final, ones)
        return stim, trace, states, final, ones


def build_context(
    circuit: Circuit,
    stimuli: Sequence[Mapping[str, int]],
    width: int,
    golden: tuple[list[dict[str, int]], list[dict[str, int]]] | None = None,
    backing: str | None = None,
) -> LaneContext:
    """Run (or reuse) the golden pass and replicate it across lanes.

    ``golden`` may hand in an existing ``(states, values)`` pair in the
    :func:`repro.safety.slicing._golden_states` format — per-cycle
    entering states plus full net values — to avoid a second golden
    simulation when the backend already keeps one.

    ``backing`` selects the packed-word representation for widths
    beyond 64 (``None`` auto-picks per :func:`repro.sim.vector
    .resolve_backing`, fed the step program's mean gates-per-level so
    narrow circuits — where the SoA kernel cannot amortize per-level
    dispatch — stay on packed ints); the SoA backing additionally
    needs compiled programs, so it falls back to packed ints when
    compilation is globally disabled (identical outcomes either way).
    """
    mask = mask_of(width)
    resolved_backing = _vector.resolve_backing(
        width, backing, level_width=_level_width_hint(circuit, width,
                                                      backing))
    if resolved_backing == "soa" and not _compiled.compilation_enabled():
        resolved_backing = "int"  # interpreter path carries big ints
    if resolved_backing == "soa":
        program = _compiled.soa_step_program(circuit, width)
        if program is None:  # pragma: no cover - numpy checked above
            resolved_backing = "int"
        else:
            st = program.stats
            log.debug(
                "lane backing=soa width=%d: %d gates / %d levels "
                "(%.1f gates/level), %d fused ops/cycle, %d B scratch",
                width, st.gates, st.levels,
                st.gates / max(1, st.levels), st.fused_ops,
                st.scratch_bytes)
    if golden is not None:
        states = [dict(st) for st in golden[0]]
        values = golden[1]
        trace = [{po: vals.get(po, 0) & 1 for po in circuit.outputs}
                 for vals in values]
        final_state = ({q: values[-1][f.d] & 1
                        for q, f in circuit.flops.items()} if values else
                       dict(states[0]) if states else
                       {q: (1 if f.init else 0)
                        for q, f in circuit.flops.items()})
    else:
        state = {q: (1 if f.init else 0) for q, f in circuit.flops.items()}
        states, trace = [], []
        for stim in stimuli:
            vals = simulate(circuit, stim, 1, state)
            states.append(state)
            trace.append({po: vals.get(po, 0) & 1 for po in circuit.outputs})
            state = {q: vals[f.d] & 1 for q, f in circuit.flops.items()}
        final_state = state
    rep_stimuli = [
        {pi: (mask if (stim.get(pi, 0) & 1) else 0) for pi in circuit.inputs}
        for stim in stimuli
    ]
    rep_trace = [{po: (mask if bit else 0) for po, bit in cyc.items()}
                 for cyc in trace]
    return LaneContext(circuit, width, mask, rep_stimuli, rep_trace,
                       states, final_state, backing=resolved_backing,
                       n_blocks=_vector.blocks_for(width))


def _level_width_hint(circuit: Circuit, width: int,
                      backing: str | None) -> float | None:
    """Mean gates-per-level of the step kernel, when it could steer the
    auto backing choice.

    Computed only when auto-selection is actually in play (no explicit
    or env-forced backing) and the width is in the range where the SoA
    crossover depends on circuit shape — building the schedule is one
    pass over the netlist and is cached on the circuit regardless of
    the choice made.
    """
    if backing is not None or os.environ.get(_vector.ENV_BACKING):
        return None
    if not _vector.HAVE_NUMPY or not _compiled.compilation_enabled():
        return None
    if not _vector.SOA_MIN_LANES <= width < _vector.SOA_ANY_WIDTH_LANES:
        return None  # the hint cannot change the outcome there
    program = _compiled.soa_step_program(circuit, width)
    if program is None:
        return None
    st = program.stats
    return st.gates / max(1, st.levels)


def propagate(ctx: LaneContext, flips: Mapping[int, Mapping[str, int]],
              start: int, n_lanes: int) -> tuple[int, int]:
    """One packed fault-free propagation with scheduled per-lane flips.

    ``flips[cycle][flop]`` is the lane mask XORed into that flop's state
    *before* the cycle is evaluated (an SEU flip, or the state delta a
    transient injection left behind).  Lanes are golden until their
    first flip, so starting at ``start`` (the earliest flip cycle) from
    the replicated golden entering-state loses nothing.

    Returns ``(fail_mask, latent_mask)``: lanes whose PO bits diverged
    from the golden trace in some cycle, and lanes whose final state
    differs without any PO divergence.
    """
    mask = ctx.mask
    lanes = mask_of(n_lanes)
    if ctx.backing == "soa":
        soa = _compiled.soa_step_program(ctx.circuit, ctx.width)
        if soa is not None:
            return _propagate_soa(ctx, soa, flips, start, lanes)
    program = _compiled.step_program(ctx.circuit)
    if program is not None:
        # compiled fast path: drive the generated step function on raw
        # slot tuples — flips XOR into state slots by index, outputs
        # compare against the replicated golden trace tuple-to-tuple
        stim, trace, states, final = ctx.raw_views(program)
        q_index = program.q_index
        fn = program.program.fn
        state = states[start]
        fail = 0
        for cyc in range(start, ctx.n_cycles):
            cyc_flips = flips.get(cyc)
            if cyc_flips:
                slots = list(state)
                for q, lane_mask in cyc_flips.items():
                    slots[q_index[q]] ^= lane_mask & mask
                state = tuple(slots)
            out, state = fn(stim[cyc], state, mask)
            for val, golden in zip(out, trace[cyc]):
                fail |= val ^ golden
        diff = 0
        for val, golden in zip(state, final):
            diff |= val ^ golden
        fail &= lanes
        return fail, diff & lanes & ~fail
    sim = SequentialSim(ctx.circuit, ctx.width)
    for q, bit in ctx.states[start].items():
        sim.state[q] = mask if bit else 0
    sim.cycle = start
    fail = 0
    for cyc in range(start, ctx.n_cycles):
        for q, lane_mask in flips.get(cyc, {}).items():
            sim.flip_state(q, lane_mask)
        out = sim.step(ctx.rep_stimuli[cyc])
        golden = ctx.rep_trace[cyc]
        for po, val in out.items():
            fail |= val ^ golden[po]
    diff = 0
    for q, bit in ctx.final_state.items():
        diff |= sim.state[q] ^ (mask if bit else 0)
    fail &= lanes
    return fail, diff & lanes & ~fail


def _propagate_soa(ctx: LaneContext, program, flips, start: int,
                   lanes: int) -> tuple[int, int]:
    """The SoA-backed packed propagation.

    The whole multi-cycle loop stays inside numpy: stimuli are slab
    assignments into the state matrix's PI rows, the kernel evaluates
    each level as fused array ops, PO divergence and the next state
    come back as row gathers.  Per-lane flips XOR the same words into a
    flop's row *and* its mirror row in one fancy-indexed update
    (``~x ^ b == ~(x ^ b)`` keeps the complement invariant).  The state
    matrix is allocated per call — contexts are shared across thread
    executors — while the flip words, converted from packed ints in one
    bytes pass per cycle, stay local anyway.
    """
    np = _vector.np
    mask = ctx.mask
    blocks = ctx.n_blocks
    stim, trace, states, final, ones = ctx.raw_views_soa(program)
    kernel = program.kernel
    n = kernel.n_slots
    pa, pb = program.pi_slice
    qa, qb = program.q_slice
    q_index = program.q_index
    po_rows = program.po_rows
    d_rows = program.d_rows
    sched = {}
    for cyc, cyc_flips in flips.items():
        packed = b"".join((m & mask).to_bytes(blocks * 8, "little")
                          for m in cyc_flips.values())
        bits = np.frombuffer(packed, dtype="<u8").astype(
            np.uint64).reshape(len(cyc_flips), blocks)
        rows = np.asarray([qa + q_index[q] for q in cyc_flips],
                          dtype=np.intp)
        sched[cyc] = (np.concatenate([rows, rows + n]),
                      np.concatenate([bits, bits]))
    S = np.zeros((2 * n, blocks), dtype=np.uint64)
    S[n] = ones
    S[qa:qb] = states[start]
    np.invert(S[qa:qb], out=S[n + qa:n + qb])
    bound = kernel.bind(S)  # output views are replayed every cycle
    fail = _vector.zeros(blocks)
    tmp = np.empty(blocks, dtype=np.uint64)
    for cyc in range(start, ctx.n_cycles):
        cyc_sched = sched.get(cyc)
        if cyc_sched is not None:
            rows, bits = cyc_sched
            S[rows] ^= bits
        S[pa:pb] = stim[cyc]
        np.invert(S[pa:pb], out=S[n + pa:n + pb])
        kernel.execute_bound(S, bound)
        if len(po_rows):
            po = S.take(po_rows, axis=0)
            po ^= trace[cyc]
            np.bitwise_or.reduce(po, axis=0, out=tmp)
            fail |= tmp
        nxt = S.take(d_rows, axis=0)
        S[qa:qb] = nxt
        np.invert(nxt, out=nxt)
        S[n + qa:n + qb] = nxt
    diff = _vector.zeros(blocks)
    if qb > qa:
        np.bitwise_or.reduce(S[qa:qb] ^ final, axis=0, out=diff)
    fail_int = _vector.from_blocks(fail) & lanes
    latent_int = _vector.from_blocks(diff) & lanes & ~fail_int
    return fail_int, latent_int


def _outcome_list(fail: int, latent: int, count: int) -> list[str]:
    """Per-lane outcome labels from the packed fail/latent words.

    The naive per-lane ``(word >> i) & 1`` probe rescans the big int
    per lane — quadratic in width once words span thousands of bits —
    so wide words unpack through numpy in one pass and only the set
    bits are visited.
    """
    if count > 64 and _vector.HAVE_NUMPY and (fail | latent):
        np = _vector.np
        nbytes = (count + 7) // 8
        outcomes = [MASKED] * count

        def hot(word: int):
            arr = np.frombuffer(word.to_bytes(nbytes, "little"),
                                dtype=np.uint8)
            return np.flatnonzero(
                np.unpackbits(arr, bitorder="little")[:count]).tolist()

        for i in hot(latent):
            outcomes[i] = LATENT
        for i in hot(fail):  # fail wins where both are set (they can't
            outcomes[i] = FAILURE  # be, but keep the precedence explicit)
        return outcomes
    return [FAILURE if (fail >> i) & 1 else
            LATENT if (latent >> i) & 1 else MASKED
            for i in range(count)]


def seu_outcomes(ctx: LaneContext,
                 points: Sequence[tuple[str, int]]) -> list[str]:
    """Classify up to ``ctx.width`` SEU points in one packed run.

    Lane *i* flips ``points[i] = (flop, cycle)`` before that cycle is
    evaluated — exactly :func:`repro.soft_error.seu.inject_seu`'s
    semantics — and the masked/latent/failure split is recovered per
    lane by XOR against the shared golden trace.
    """
    if len(points) > ctx.width:
        raise ValueError(f"{len(points)} points exceed lane width "
                         f"{ctx.width}")
    flips: dict[int, dict[str, int]] = {}
    start = ctx.n_cycles
    for lane, (flop, cyc) in enumerate(points):
        if cyc < 0 or cyc >= ctx.n_cycles:
            # the flip never fires inside the workload: provably masked
            # (matching inject_seu; a negative index must not reach the
            # context lists, where it would wrap around)
            continue
        per_cycle = flips.setdefault(cyc, {})
        per_cycle[flop] = per_cycle.get(flop, 0) | (1 << lane)
        start = min(start, cyc)
    if start >= ctx.n_cycles:
        return [MASKED] * len(points)
    fail, latent = propagate(ctx, flips, start, len(points))
    return _outcome_list(fail, latent, len(points))


def transient_outcomes(
    ctx: LaneContext,
    points: Sequence[tuple[Any, int]],
    inject: Callable[[Any, int], tuple[bool, Mapping[str, int]]],
) -> list[str]:
    """Classify up to ``ctx.width`` transient injections in one packed run.

    ``inject(fault, cycle)`` performs the backend-specific injection
    cycle against golden data and returns ``(failed_now, state_delta)``:
    whether a primary output already differs in the injection cycle, and
    the per-flop XOR the perturbation leaves on the state entering
    ``cycle + 1``.  Points that fail immediately, leave no perturbation
    (masked), or perturb only the post-workload state (latent) are
    resolved without a lane; the rest share one packed propagation.
    """
    if len(points) > ctx.width:
        raise ValueError(f"{len(points)} points exceed lane width "
                         f"{ctx.width}")
    outcomes: list[str | None] = [None] * len(points)
    flips: dict[int, dict[str, int]] = {}
    start = ctx.n_cycles
    lane_of: list[int] = []
    for i, (fault, cyc) in enumerate(points):
        if cyc < 0:
            # a negative index would silently wrap into golden data here
            # (and in the per-point reference) — refuse loudly instead
            raise ValueError(f"injection cycle {cyc} is negative")
        failed_now, delta = inject(fault, cyc)
        if failed_now:
            outcomes[i] = FAILURE
            continue
        hot = [q for q, bit in delta.items() if bit]
        if not hot:
            outcomes[i] = MASKED
            continue
        if cyc + 1 >= ctx.n_cycles:
            outcomes[i] = LATENT  # perturbed state survives to the end
            continue
        lane_mask = 1 << len(lane_of)
        per_cycle = flips.setdefault(cyc + 1, {})
        for q in hot:
            per_cycle[q] = per_cycle.get(q, 0) | lane_mask
        start = min(start, cyc + 1)
        lane_of.append(i)
    if lane_of:
        fail, latent = propagate(ctx, flips, start, len(lane_of))
        labels = _outcome_list(fail, latent, len(lane_of))
        for i, label in zip(lane_of, labels):
            outcomes[i] = label
    return outcomes  # type: ignore[return-value]
