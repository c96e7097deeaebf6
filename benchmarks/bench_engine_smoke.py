"""Engine smoke benchmark — seeds the perf trajectory (BENCH_engine.json).

Four measurements:

1. **PPSFP fast path**: the pre-refactor gate-level loop (fresh fan-out
   BFS plus a full topo-order scan per fault per batch, no fault
   dropping — restated here verbatim as the baseline) against the
   engine's cone-cached, fault-dropping batched path.  Must be >= 2x
   with identical coverage.
2. **eval_gate dispatch**: the pre-dispatch if/elif GateType chain
   (restated verbatim) against the module-level dispatch table that
   replaced it, swept over a packed-pattern topo evaluation.
3. **Executor scaling**: the same SEU campaign swept over
   executors × workers — serial, thread x{2,4} and process x{1,2,4} —
   with streaming CampaignDb persistence on, plus outcome-identity
   checks across every cell.  On a multicore host the process rows are
   the multicore-scaling claim; `process_x1` exposes the pure
   spawn/ship overhead.
4. **PPSFP-statistical scaling**: a seeded fault-sample campaign on a
   larger random circuit over the same executor grid (abridged).
5. **RSN-diagnosis and GPGPU-SEU scaling**: the two workload families
   ported in the full-port PR, on abridged executor grids — their rows
   gate outcome identity for the new backends in CI.
6. **Lane packing**: the SEU and slicing smoke workloads per-point
   (``lane_width=1``) against the packed path at widths 7 and 64 —
   outcome identity is required unconditionally, and the packed SEU row
   carries the >= 3x CI gate (target >= 5x).
7. **Persistent worker pool**: the same process campaign repeated
   back-to-back with ``reuse_pool`` off (fresh spawn per campaign, the
   pre-pool behaviour) and on (module-level pool registry) — identity
   gated, spawn amortisation reported.
8. **Compiled simulation core**: the reference interpreter against the
   codegen'd programs of :mod:`repro.sim.compiled` on a
   fault-dictionary PPSFP sweep (cold = includes codegen+compile, warm
   = steady state) and on the packed SEU campaign — identity gated
   unconditionally, warm PPSFP >= 3x is the CI floor (target 5x).
9. **Pattern shipping**: a PPSFP backend whose pickled pattern payload
   crosses the temp-file threshold — campaign payload size with the
   patterns parked vs inlined, identity gated.
10. **Vector core**: the packed-64 compiled SEU campaign against the
    vector tier at 256 and 1024 lanes (big-int backing) — identity vs
    the per-point reference is
    required unconditionally at every width, and the 256-lane row
    carries the >= 2x-over-packed CI gate (target >= 3x).  The section
    also records the source-interning effect on a cold det-program
    sweep (sites vs unique compiled sources, cold vs warm).
11. **SoA core**: the big-int backing against the level-batched SoA
    kernel tier (one fused numpy op per level-family group over the
    whole ``(2 * n_slots, blocks)`` mirror matrix) on a wide random
    circuit at 256/1024/4096 lanes, via direct ``seu_outcomes`` calls
    best-of-3.  Identity is required unconditionally — between the two
    backings at every width, and against a per-point ``inject_seu``
    probe — and the 1024-lane row carries the >= 2x-over-int CI gate
    (warning-only when the host's calibrated crossover sits above 1024
    lanes); the 4096-lane row must not regress below parity.
12. **Resilience**: a campaign aborted mid-flight and resumed from its
    CampaignDb checkpoints against the uninterrupted reference
    (byte-identical rows, outcomes, counts and convergence — gated
    unconditionally); a persistently-failing chunk (ChaosBackend)
    quarantined without failing the campaign; and the cost of the
    armed fault-tolerance machinery (retries + timeout accounting) on
    a no-fault run, min-of-3, gated at <= 5% overhead.

Runs standalone (``python benchmarks/bench_engine_smoke.py``) or under
pytest; both write ``BENCH_engine.json`` at the repo root.
``benchmarks/check_engine_regression.py`` turns the record into a CI
gate (process x4 must not be slower than serial on SEU when the host
has the cores to scale).
"""

import json
import random
import time
from collections import deque
from functools import partial
from pathlib import Path

from repro.circuit import load
from repro.circuit.library import random_combinational
from repro.core import CampaignDb, format_table
from repro.engine import (
    ChaosBackend,
    ChaosFault,
    EngineConfig,
    GpgpuSeuBackend,
    PpsfpBackend,
    RsnDiagnosisBackend,
    SeuBackend,
    resume_campaign,
    run_campaign,
)
from repro.engine.executors import _usable_cpus as _host_cpus
from repro.faults import collapse
from repro.gpgpu import reduction_kernel
from repro.gpgpu.apps import _draw_faults, _run as _run_simt
from repro.rsn import all_rsn_faults, compact_test, sib_tree
from repro.sim import fault_simulate_batched, random_patterns
from repro.sim.fault_sim import _observe_nets
from repro.sim.logic import GateType, eval_gate, mask_of, simulate
from repro.soft_error import random_workload

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


# ----------------------------------------------------------------------
# pre-refactor PPSFP baseline (the seed's per-fault cone recomputation)
# ----------------------------------------------------------------------
def _baseline_cone_gates(circuit, start_nets):
    fmap = circuit.fanout_map()
    reach, work = set(), deque(start_nets)
    while work:
        net = work.popleft()
        if net in reach:
            continue
        reach.add(net)
        for dst in fmap.get(net, ()):
            if dst in circuit.flops:
                continue
            work.append(dst)
    return [g for g in circuit.topo_order() if g.output in reach or
            any(i in reach for i in g.inputs)]


def _baseline_detection_mask(circuit, fault, good, mask, observe):
    forced = mask if fault.value else 0
    line = fault.line
    bad = dict(good)
    if line.is_stem:
        bad[line.net] = forced
        for gate in _baseline_cone_gates(circuit, [line.net]):
            if gate.output == line.net:
                continue
            bad[gate.output] = eval_gate(gate, bad, mask)
        bad[line.net] = forced
    elif line.sink in circuit.gates:
        gate = circuit.gates[line.sink]
        shadow = dict(bad)
        shadow[line.net] = forced
        bad[line.sink] = eval_gate(gate, shadow, mask)
        for downstream in _baseline_cone_gates(circuit, [line.sink]):
            if downstream.output == line.sink:
                continue
            bad[downstream.output] = eval_gate(downstream, bad, mask)
    elif line.sink in circuit.flops:
        bad[f"__flopD__{line.sink}"] = forced
    det = 0
    for net in observe:
        good_v = good.get(net, 0)
        if (not line.is_stem and line.sink in circuit.flops
                and net == circuit.flops[line.sink].d):
            bad_v = bad.get(f"__flopD__{line.sink}", bad.get(net, 0))
        else:
            bad_v = bad.get(net, 0)
        det |= (good_v ^ bad_v) & mask
    return det


def _ppsfp_measurement(n_batches=8, batch_patterns=16):
    circuit = load("rand_seq")
    faults, _ = collapse(circuit)
    batches = [(random_patterns(circuit.inputs, batch_patterns, seed=100 + b),
                batch_patterns) for b in range(n_batches)]
    state = random_patterns(circuit.flops, batch_patterns, seed=999)
    observe = _observe_nets(circuit, True)
    mask = mask_of(batch_patterns)

    start = time.perf_counter()
    baseline_detected = set()
    for pi_values, n in batches:
        good = simulate(circuit, pi_values, n, state)
        for fault in faults:
            if _baseline_detection_mask(circuit, fault, good, mask, observe):
                baseline_detected.add(fault)
    t_baseline = time.perf_counter() - start

    circuit._cone_cache.clear()
    start = time.perf_counter()
    fast = fault_simulate_batched(circuit, faults, batches, state=state,
                                  drop_detected=True)
    t_fast = time.perf_counter() - start

    identical = (set(fast.detected) == baseline_detected
                 and len(fast.detected) + len(fast.undetected) == len(faults))
    return {
        "circuit": circuit.name,
        "n_faults": len(faults),
        "n_patterns": n_batches * batch_patterns,
        "coverage": round(fast.coverage, 4),
        "coverage_identical": identical,
        "baseline_s": round(t_baseline, 4),
        "fast_path_s": round(t_fast, 4),
        "speedup": round(t_baseline / t_fast, 2) if t_fast else float("inf"),
    }


# ----------------------------------------------------------------------
# pre-dispatch eval_gate baseline (the seed's if/elif GateType chain)
# ----------------------------------------------------------------------
def _baseline_eval_gate_chain(gate, values, mask):
    gtype = gate.gtype
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    ins = [values[i] for i in gate.inputs]
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return ~ins[0] & mask
    acc = ins[0]
    if gtype in (GateType.AND, GateType.NAND):
        for v in ins[1:]:
            acc &= v
        return acc if gtype is GateType.AND else ~acc & mask
    if gtype in (GateType.OR, GateType.NOR):
        for v in ins[1:]:
            acc |= v
        return acc if gtype is GateType.OR else ~acc & mask
    for v in ins[1:]:
        acc ^= v
    return acc if gtype is GateType.XOR else ~acc & mask


def _eval_gate_measurement(n_patterns=32, sweeps=400):
    circuit = load("rand_seq")
    mask = mask_of(n_patterns)
    values = dict(random_patterns(circuit.inputs, n_patterns, seed=17))
    values.update(random_patterns(circuit.flops, n_patterns, seed=18))
    order = circuit.topo_order()

    def sweep(evaluate):
        vals = dict(values)
        for gate in order:
            vals[gate.output] = evaluate(gate, vals, mask)
        return vals

    assert sweep(_baseline_eval_gate_chain) == sweep(eval_gate)

    start = time.perf_counter()
    for _ in range(sweeps):
        sweep(_baseline_eval_gate_chain)
    t_chain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(sweeps):
        sweep(eval_gate)
    t_dispatch = time.perf_counter() - start
    return {
        "circuit": circuit.name,
        "gate_evals": len(order) * sweeps,
        "chain_s": round(t_chain, 4),
        "dispatch_s": round(t_dispatch, 4),
        "speedup": round(t_chain / t_dispatch, 2) if t_dispatch else
        float("inf"),
    }


# ----------------------------------------------------------------------
# executor x workers scaling sweeps
# ----------------------------------------------------------------------
def _sweep(make_backend, config_kwargs, grid):
    """Run one campaign per (executor, workers) cell; returns the table
    plus identity checks against the serial cell."""
    rows = {}
    reference = None
    identical = True
    for executor, workers in grid:
        db = CampaignDb()
        # reuse_pool off: every process row pays cold worker spawn, so
        # cells stay comparable across sections (and with earlier PRs);
        # warm-pool amortisation is measured in the persistent_pool
        # section, not here
        report = run_campaign(
            make_backend(),
            EngineConfig(workers=workers, executor=executor,
                         reuse_pool=False, **config_kwargs),
            db=db)
        db.close()
        key = f"{executor}_x{workers}"
        # a silent engine fallback (e.g. process -> thread) would make the
        # scaling rows measure the wrong strategy; fail loudly instead
        assert report.executor == executor, (
            f"{key}: engine resolved to {report.executor!r}")
        rows[key] = {
            "injections": report.total,
            "elapsed_s": round(report.elapsed_s, 4),
            "injections_per_s": round(report.injections_per_second, 1),
        }
        outcome_rows = [(i.location, i.cycle, i.outcome)
                        for i in report.injections]
        if reference is None:
            reference = outcome_rows
        elif outcome_rows != reference:
            identical = False
    serial_rate = rows["serial_x1"]["injections_per_s"]
    for row in rows.values():
        row["speedup_vs_serial"] = (
            round(row["injections_per_s"] / serial_rate, 2)
            if serial_rate else 0.0)
    return rows, identical


def _seu_scaling(n_cycles=120):
    circuit = load("rand_seq")
    workload = random_workload(circuit, n_cycles, seed=7)

    def make_backend():
        # per-point path pinned: these rows measure executor dispatch
        # against fixed per-injection work (the packed-vs-per-point
        # comparison lives in the lane_packing section)
        return SeuBackend(circuit.copy(), workload, lane_width=1)

    grid = [("serial", 1), ("thread", 2), ("thread", 4),
            ("process", 1), ("process", 2), ("process", 4)]
    rows, identical = _sweep(make_backend, {"batch_size": 24}, grid)
    return {
        "circuit": circuit.name,
        "population": len(circuit.flops) * n_cycles,
        "n_cycles": n_cycles,
        "grid": rows,
        "outcome_identical": identical,
        "process_x4_speedup": rows["process_x4"]["speedup_vs_serial"],
    }


def _ppsfp_statistical_scaling(n_gates=2000, n_batches=10, sample=4000):
    circuit = random_combinational(n_inputs=24, n_gates=n_gates, seed=5)
    faults, _ = collapse(circuit)
    batches = [(random_patterns(circuit.inputs, 32, seed=100 + b), 32)
               for b in range(n_batches)]

    def make_backend():
        return PpsfpBackend(circuit.copy(), faults, batches)

    grid = [("serial", 1), ("thread", 4), ("process", 2), ("process", 4)]
    rows, identical = _sweep(
        make_backend,
        {"batch_size": 128, "sample": sample, "seed": 11}, grid)
    return {
        "circuit": circuit.name,
        "fault_universe": len(faults),
        "sample": sample,
        "grid": rows,
        "outcome_identical": identical,
        "process_x4_speedup": rows["process_x4"]["speedup_vs_serial"],
    }


def _rsn_diagnosis_scaling(depth=3):
    factory = partial(sib_tree, depth=depth, regs_per_leaf=1, reg_bits=8)
    faults = all_rsn_faults(factory())
    test = compact_test(factory)

    def make_backend():
        return RsnDiagnosisBackend(factory, faults, test)

    grid = [("serial", 1), ("thread", 4), ("process", 2), ("process", 4)]
    rows, identical = _sweep(make_backend, {"batch_size": 8}, grid)
    return {
        "network": factory().name,
        "fault_universe": len(faults),
        "test_shift_cycles": test.shift_cycles,
        "grid": rows,
        "outcome_identical": identical,
        "process_x4_speedup": rows["process_x4"]["speedup_vs_serial"],
    }


def _gpgpu_seu_scaling(n_injections=240):
    rng = random.Random(2)
    inputs = [rng.randrange(256) for _ in range(128)]
    kernel = reduction_kernel()
    _golden, issues = _run_simt(kernel, inputs, [])
    faults = _draw_faults(rng, n_injections, 32, issues)

    def make_backend():
        return GpgpuSeuBackend(kernel, inputs, faults, label="reduction")

    grid = [("serial", 1), ("thread", 4), ("process", 2), ("process", 4)]
    rows, identical = _sweep(make_backend, {"batch_size": 16}, grid)
    return {
        "kernel": "reduction",
        "issue_slots": issues,
        "n_injections": n_injections,
        "grid": rows,
        "outcome_identical": identical,
        "process_x4_speedup": rows["process_x4"]["speedup_vs_serial"],
    }


# ----------------------------------------------------------------------
# lane packing: per-point vs packed, identity required
# ----------------------------------------------------------------------
def _lane_rows(make_backend, widths, config_kwargs):
    rows = {}
    reference = None
    identical = True
    for width in widths:
        report = run_campaign(make_backend(width),
                              EngineConfig(executor="serial",
                                           **config_kwargs))
        rows[f"w{width}"] = {
            "injections": report.total,
            "elapsed_s": round(report.elapsed_s, 4),
            "injections_per_s": round(report.injections_per_second, 1),
        }
        outcome_rows = [(i.location, i.cycle, i.outcome)
                        for i in report.injections]
        if reference is None:
            reference = outcome_rows
        elif outcome_rows != reference:
            identical = False
    per_point = rows[f"w{widths[0]}"]["elapsed_s"]
    for row in rows.values():
        row["speedup_vs_per_point"] = (
            round(per_point / row["elapsed_s"], 2) if row["elapsed_s"]
            else float("inf"))
    return rows, identical


def _lane_packing_measurement(n_cycles=120):
    from repro.sim import compiled as _compiled

    circuit = load("rand_seq")
    workload = random_workload(circuit, n_cycles, seed=7)
    # interpreter pinned: these rows isolate the lane-packing effect
    # (W injections per sequential run vs one), so both sides run the
    # same evaluation core as when the 3x floor was established; the
    # compiled-vs-interpreted claim has its own compiled_sim section
    with _compiled.disabled():
        seu_rows, seu_identical = _lane_rows(
            lambda width: SeuBackend(circuit.copy(), workload,
                                     lane_width=width),
            (1, 7, 64), {"batch_size": 64})

        faults, _ = collapse(circuit)
        slicing_workload = random_workload(circuit, 30, seed=3)
        slicing_faults = faults[:40]
        from repro.engine.workloads import SlicingBackend

        slicing_rows, slicing_identical = _lane_rows(
            lambda width: SlicingBackend(circuit.copy(), slicing_faults,
                                         slicing_workload, use_filter=False,
                                         lane_width=width),
            (1, 64), {"batch_size": 64})
    return {
        "circuit": circuit.name,
        "seu": {
            "population": len(circuit.flops) * n_cycles,
            "grid": seu_rows,
            "outcome_identical": seu_identical,
            "packed_speedup": seu_rows["w64"]["speedup_vs_per_point"],
        },
        "slicing": {
            "population": len(slicing_faults) * 30,
            "grid": slicing_rows,
            "outcome_identical": slicing_identical,
            "packed_speedup": slicing_rows["w64"]["speedup_vs_per_point"],
        },
    }


# ----------------------------------------------------------------------
# persistent pool: fresh spawn per campaign vs reused registry pool
# ----------------------------------------------------------------------
def _persistent_pool_measurement(n_campaigns=3, n_cycles=40):
    from repro.engine import shutdown_pools

    circuit = load("rand_seq")
    workload = random_workload(circuit, n_cycles, seed=7)

    def sweep(reuse):
        rows = []
        start = time.perf_counter()
        for _ in range(n_campaigns):
            report = run_campaign(
                SeuBackend(circuit.copy(), workload, lane_width=1),
                EngineConfig(batch_size=8, workers=2, executor="process",
                             reuse_pool=reuse))
            assert report.executor == "process", report.executor
            rows.append([(i.location, i.cycle, i.outcome)
                         for i in report.injections])
        return time.perf_counter() - start, rows

    shutdown_pools()
    fresh_s, fresh_rows = sweep(False)
    reused_s, reused_rows = sweep(True)
    shutdown_pools()
    return {
        "circuit": circuit.name,
        "n_campaigns": n_campaigns,
        "fresh_pools_s": round(fresh_s, 4),
        "reused_pool_s": round(reused_s, 4),
        "speedup": round(fresh_s / reused_s, 2) if reused_s else float("inf"),
        "outcome_identical": fresh_rows == reused_rows,
    }


# ----------------------------------------------------------------------
# compiled simulation core: interpreter vs codegen'd programs
# ----------------------------------------------------------------------
def _compiled_sim_measurement(n_gates=800, n_batches=12, batch_patterns=16,
                              n_cycles=120):
    from repro.sim import compiled as _compiled

    record = {}
    # fault-dictionary PPSFP (no dropping — diagnosis/compaction-style
    # full detection masks), every site evaluated once per batch
    circuit = random_combinational(n_inputs=24, n_gates=n_gates, seed=5)
    faults, _ = collapse(circuit)
    batches = [(random_patterns(circuit.inputs, batch_patterns,
                                seed=100 + b), batch_patterns)
               for b in range(n_batches)]

    def dictionary_sweep():
        return fault_simulate_batched(circuit, faults, batches,
                                      drop_detected=False)

    old_hits = _compiled.COMPILE_AFTER_HITS
    _compiled.COMPILE_AFTER_HITS = 0  # measure the core, not the policy
    try:
        with _compiled.disabled():
            start = time.perf_counter()
            interp = dictionary_sweep()
            t_interp = time.perf_counter() - start
        circuit._program_cache.clear()
        start = time.perf_counter()
        cold = dictionary_sweep()  # pays codegen + compile per site
        t_cold = time.perf_counter() - start
        start = time.perf_counter()
        warm = dictionary_sweep()  # steady state: programs cached
        t_warm = time.perf_counter() - start
    finally:
        _compiled.COMPILE_AFTER_HITS = old_hits
    ppsfp_identical = (
        interp.detected == cold.detected == warm.detected
        and interp.undetected == cold.undetected == warm.undetected)
    record["ppsfp"] = {
        "circuit": circuit.name,
        "n_faults": len(faults),
        "n_patterns": n_batches * batch_patterns,
        "outcome_identical": ppsfp_identical,
        "interpreted_s": round(t_interp, 4),
        "compiled_cold_s": round(t_cold, 4),
        "compiled_warm_s": round(t_warm, 4),
        "cold_speedup": round(t_interp / t_cold, 2) if t_cold else
        float("inf"),
        "warm_speedup": round(t_interp / t_warm, 2) if t_warm else
        float("inf"),
    }

    # packed SEU campaign: the sequential path (step program + lanes).
    # One shared circuit instance across runs — a copy would start with
    # an empty program cache and the timed run would pay compilation
    seq = load("rand_seq")
    workload = random_workload(seq, n_cycles, seed=7)

    def seu_campaign():
        report = run_campaign(
            SeuBackend(seq, workload, lane_width=64),
            EngineConfig(batch_size=64, executor="serial"))
        return [(i.location, i.cycle, i.outcome) for i in report.injections]

    seu_campaign()  # warm the per-circuit step program (eagerly compiled)
    start = time.perf_counter()
    rows_compiled = seu_campaign()
    t_seu_compiled = time.perf_counter() - start
    with _compiled.disabled():
        start = time.perf_counter()
        rows_interp = seu_campaign()
        t_seu_interp = time.perf_counter() - start
    record["seu"] = {
        "circuit": seq.name,
        "population": len(seq.flops) * n_cycles,
        "outcome_identical": rows_compiled == rows_interp,
        "interpreted_s": round(t_seu_interp, 4),
        "compiled_s": round(t_seu_compiled, 4),
        "speedup": round(t_seu_interp / t_seu_compiled, 2)
        if t_seu_compiled else float("inf"),
    }
    return record


# ----------------------------------------------------------------------
# vector core: packed-64 vs 64xN-lane campaigns, identity required
# ----------------------------------------------------------------------
def _vector_core_measurement(n_cycles=120):
    from repro.sim import compiled as _compiled
    from repro.circuit.library import random_sequential

    # larger than the smoke rand_seq: with only 12 flops the fixed
    # per-injection costs (outcome recovery, engine bookkeeping) mask
    # the per-run saving the wider lanes buy
    circuit = random_sequential(n_inputs=10, n_gates=400, n_flops=40,
                                seed=3)
    workload = random_workload(circuit, n_cycles, seed=7)

    def campaign(width, backing=None):
        kwargs = {"lane_width": width}
        if backing is not None:
            kwargs["lane_backing"] = backing
        # one shared circuit instance: the step program compiles once
        # and every width reuses the same code object (the vector
        # wrappers add only lane geometry)
        backend = SeuBackend(circuit, workload, **kwargs)
        report = run_campaign(backend,
                              EngineConfig(executor="serial"))
        return (backend, report,
                [(i.location, i.cycle, i.outcome)
                 for i in report.injections])

    _, _, ref_rows = campaign(1)  # per-point identity reference
    campaign(64)  # warm the shared step program (eagerly compiled)

    variants = (("w64_packed", 64, None),
                ("w256_vector", 256, None),
                ("w1024_vector", 1024, None))
    rows = {}
    identical = True
    for label, width, backing in variants:
        backend, report, out_rows = campaign(width, backing)
        ctx = backend._lane_ctx
        rows[label] = {
            "injections": report.total,
            "backing": ctx.backing if ctx is not None else "none",
            "elapsed_s": round(report.elapsed_s, 4),
            "injections_per_s": round(report.injections_per_second, 1),
            "identical_vs_per_point": out_rows == ref_rows,
        }
        identical = identical and out_rows == ref_rows
    packed = rows["w64_packed"]["elapsed_s"]
    for row in rows.values():
        row["speedup_vs_packed"] = (
            round(packed / row["elapsed_s"], 2) if row["elapsed_s"]
            else float("inf"))

    # source interning: a cold fault-dictionary sweep compiles once per
    # distinct cone *structure*, not once per site.  Structured
    # circuits repeat cone shapes heavily (rand_seq: 230 det sites
    # share 90 sources); fully random combinational netlists are the
    # honest worst case — nearly every cone source is unique there, so
    # interning buys nothing and the cold cost is all real compilation
    comb = load("rand_seq")
    cfaults, _ = collapse(comb)
    cbatches = [(random_patterns(comb.inputs, 16, seed=100 + b), 16)
                for b in range(2)]
    old_hits = _compiled.COMPILE_AFTER_HITS
    _compiled.COMPILE_AFTER_HITS = 0
    try:
        comb._program_cache.clear()
        start = time.perf_counter()
        fault_simulate_batched(comb, cfaults, cbatches,
                               drop_detected=False)
        t_cold = time.perf_counter() - start
        start = time.perf_counter()
        fault_simulate_batched(comb, cfaults, cbatches,
                               drop_detected=False)
        t_warm = time.perf_counter() - start
    finally:
        _compiled.COMPILE_AFTER_HITS = old_hits
    cache = comb._program_cache
    interned = cache.get("_interned", {})
    n_sites = sum(1 for key in cache
                  if isinstance(key, tuple) and key[0] in ("det", "cone"))
    return {
        "circuit": circuit.name,
        "n_cycles": n_cycles,
        "population": len(circuit.flops) * n_cycles,
        "grid": rows,
        "outcome_identical": identical,
        "vector_speedup_256": rows["w256_vector"]["speedup_vs_packed"],
        "vector_speedup_1024": rows["w1024_vector"]["speedup_vs_packed"],
        "interning": {
            "circuit": comb.name,
            "compiled_sites": n_sites,
            "unique_sources": len(interned),
            "sites_per_source": round(n_sites / len(interned), 2)
            if interned else 1.0,
            "cold_s": round(t_cold, 4),
            "warm_s": round(t_warm, 4),
            "cold_vs_warm": round(t_cold / t_warm, 2) if t_warm
            else float("inf"),
        },
    }


# ----------------------------------------------------------------------
# SoA core: level-batched kernel vs big-int backing on a wide circuit
# ----------------------------------------------------------------------
def _soa_core_measurement(n_cycles=24, probe_points=48):
    from repro.circuit.library import random_sequential
    from repro.engine import lanes as _lanes
    from repro.sim import compiled as _compiled
    from repro.sim import vector as _vector
    from repro.soft_error.seu import _golden_run, inject_seu

    if not _vector.HAVE_NUMPY:
        return {"skipped": "numpy not installed"}

    # wide levels are the SoA tier's home turf: ~85 gates per level
    # amortize the ~4 fused numpy calls each level costs.  The smoke
    # rand_seq (a handful of gates per level) would measure dispatch
    # overhead instead of the kernel
    circuit = random_sequential(n_inputs=80, n_gates=12800, n_flops=320,
                                seed=3)
    workload = random_workload(circuit, n_cycles, seed=7)
    points = [(flop, cyc) for cyc in range(n_cycles)
              for flop in circuit.flops]

    prog = _compiled.soa_step_program(circuit, 1024)
    stats = prog.stats

    # identity probe against the per-point injector (inject_seu is the
    # semantics oracle; running it over the full 7680-point population
    # would dwarf the bench, so a spread sample carries the gate — the
    # full-width identity below covers int vs SoA on every point)
    golden = _golden_run(circuit, workload)
    probe = points[::len(points) // probe_points][:probe_points]
    expected = [inject_seu(circuit, workload, flop, cyc, golden)
                for flop, cyc in probe]
    probe_ctx = _lanes.build_context(circuit, workload, len(probe),
                                     backing="soa")
    probe_identical = _lanes.seu_outcomes(probe_ctx, probe) == expected

    def timed(ctx, group):
        _lanes.seu_outcomes(ctx, group)  # warm
        best = None
        for _ in range(3):
            start = time.perf_counter()
            out = _lanes.seu_outcomes(ctx, group)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
        return best, out

    rows = {}
    identical = probe_identical
    for width in (256, 1024, 4096):
        group = points[:width]
        times, outcomes = {}, {}
        for backing in ("int", "soa"):
            ctx = _lanes.build_context(circuit, workload, width,
                                       backing=backing)
            times[backing], outcomes[backing] = timed(ctx, group)
        same = outcomes["int"] == outcomes["soa"]
        identical = identical and same
        rows[f"w{width}"] = {
            "int_s": round(times["int"], 4),
            "soa_s": round(times["soa"], 4),
            "soa_speedup": round(times["int"] / times["soa"], 2)
            if times["soa"] else float("inf"),
            "identical": same,
        }
    return {
        "circuit": circuit.name,
        "n_cycles": n_cycles,
        "population": len(points),
        "gates": stats.gates,
        "levels": stats.levels,
        "gates_per_level": round(stats.gates / stats.levels, 1),
        "fused_ops": stats.fused_ops,
        "scratch_kb_1024": stats.scratch_bytes // 1024,
        # the auto crossover in effect on this host (env/calibration
        # included) — the regression gate softens to a warning when it
        # sits above 1024, i.e. when this host measurably shouldn't run
        # SoA at that width
        "soa_min_lanes": _vector.SOA_MIN_LANES,
        "probe_identical_vs_inject_seu": probe_identical,
        "grid": rows,
        "outcome_identical": identical,
        "soa_speedup_256": rows["w256"]["soa_speedup"],
        "soa_speedup_1024": rows["w1024"]["soa_speedup"],
        "soa_speedup_4096": rows["w4096"]["soa_speedup"],
    }


# ----------------------------------------------------------------------
# pattern shipping: large PPSFP payloads park in the temp-file channel
# ----------------------------------------------------------------------
def _pattern_shipping_measurement(n_inputs=48, n_gates=600,
                                  batch_patterns=4096, n_batches=16,
                                  sample=400):
    import pickle

    from repro.engine import executors as _executors

    circuit = random_combinational(n_inputs=n_inputs, n_gates=n_gates,
                                   seed=9)
    faults, _ = collapse(circuit)
    batches = [(random_patterns(circuit.inputs, batch_patterns,
                                seed=200 + b), batch_patterns)
               for b in range(n_batches)]
    pattern_bytes = len(pickle.dumps(batches,
                                     protocol=pickle.HIGHEST_PROTOCOL))

    old_min = _executors.SHIP_BYTES_MIN
    _executors.SHIP_BYTES_MIN = 1 << 60  # shipping off: inline baseline
    try:
        inline_bytes = len(pickle.dumps(
            PpsfpBackend(circuit.copy(), faults, batches),
            protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        _executors.SHIP_BYTES_MIN = old_min
    shipped_backend = PpsfpBackend(circuit.copy(), faults, batches)
    shipped_bytes = len(pickle.dumps(shipped_backend,
                                     protocol=pickle.HIGHEST_PROTOCOL))
    blob = shipped_backend._batches_blob

    rows = {}
    for executor in ("serial", "process"):
        report = run_campaign(
            PpsfpBackend(circuit.copy(), faults, batches),
            EngineConfig(batch_size=64, workers=2, executor=executor,
                         sample=sample, seed=3, reuse_pool=False))
        rows[executor] = [(i.location, i.cycle, i.outcome)
                          for i in report.injections]
    return {
        "circuit": circuit.name,
        "n_patterns": n_batches * batch_patterns,
        "pattern_bytes": pattern_bytes,
        "ship_threshold": old_min,
        "shipped": blob is not None,
        "blob_bytes": blob.nbytes if blob is not None else 0,
        "backend_inline_bytes": inline_bytes,
        "backend_shipped_bytes": shipped_bytes,
        "payload_shrink": round(inline_bytes / shipped_bytes, 2)
        if shipped_bytes else float("inf"),
        "outcome_identical": rows["serial"] == rows["process"],
    }


# ----------------------------------------------------------------------
# resilience: kill-and-resume identity, quarantine, retry overhead
# ----------------------------------------------------------------------
def _resilience_measurement(n_cycles=60, abort_after=5, rounds=3):
    circuit = load("rand_seq")
    workload = random_workload(circuit, n_cycles, seed=7)
    population = len(circuit.flops) * n_cycles

    def make_backend():
        return SeuBackend(circuit.copy(), workload, lane_width=1)

    config = EngineConfig(batch_size=24, executor="serial")

    def signature(report):
        return ([(i.location, i.cycle, i.outcome) for i in report.injections],
                report.outcomes, report.total, report.converged,
                report.confidence_interval("failure"))

    # kill-and-resume identity: abort mid-campaign from the accounting
    # path (the checkpoints for accounted chunks are already committed),
    # then resume on the same db and compare against an uninterrupted run
    ref_db = CampaignDb()
    reference = run_campaign(make_backend(), config, db=ref_db)
    ref_db.close()

    class _Abort(Exception):
        pass

    seen = {"n": 0, "campaign_id": None}

    def hook(report):
        seen["campaign_id"] = report.campaign_id
        seen["n"] += 1
        if seen["n"] >= abort_after:
            raise _Abort

    db = CampaignDb()
    try:
        run_campaign(make_backend(), config, db=db, on_chunk=hook)
    except _Abort:
        pass
    resumed = resume_campaign(make_backend(), seen["campaign_id"], config,
                              db=db)
    db.close()
    resume_identical = signature(resumed) == signature(reference)

    # quarantine: a chunk that fails every retry becomes a first-class
    # 'failed' stratum; the rest of the campaign completes untouched
    victim = make_backend()
    trigger = victim.enumerate_points()[30]  # chunk 1 of 24-point chunks
    chaos = ChaosBackend(victim, [ChaosFault(trigger, "raise", None)])
    qreport = run_campaign(
        chaos, EngineConfig(batch_size=24, executor="serial",
                            max_chunk_retries=1, retry_backoff_s=0.001))
    quarantine_ok = (
        len(qreport.quarantined) == 1
        and qreport.quarantined[0].n_points == 24
        and qreport.total == population - qreport.quarantined_points
        and "quarantined" in qreport.describe())

    # retry overhead: the armed machinery (bounded retries, timeout
    # accounting, per-chunk validation) against a config with retries
    # off, both on the identical no-fault serial campaign, min-of-3
    def timed(cfg):
        best = None
        for _ in range(rounds):
            start = time.perf_counter()
            run_campaign(make_backend(), cfg)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
        return best

    guarded_s = timed(EngineConfig(batch_size=24, executor="serial",
                                   max_chunk_retries=2, chunk_timeout=30.0))
    bare_s = timed(EngineConfig(batch_size=24, executor="serial",
                                max_chunk_retries=0))
    return {
        "circuit": circuit.name,
        "population": population,
        "abort_after_chunks": abort_after,
        "resume_identical": resume_identical,
        "resumed_chunks": resumed.resumed_chunks,
        "quarantine_ok": quarantine_ok,
        "quarantined_points": qreport.quarantined_points,
        "guarded_s": round(guarded_s, 4),
        "bare_s": round(bare_s, 4),
        "retry_overhead": round(guarded_s / bare_s, 3) if bare_s
        else float("inf"),
    }


# ----------------------------------------------------------------------
# campaign service: N-worker report identity under SIGKILL, lease cost
# ----------------------------------------------------------------------
def _service_resilience_measurement(n_cycles=60, rounds=3):
    import os
    import tempfile

    import signal

    from repro.engine import HostChaos, HostFault, shutdown_pools
    from repro.service import CampaignQueue, CampaignWorker, LocalWorkerPool

    # earlier sections leave persistent process pools (and their handler
    # threads) alive; on a small host they skew the single-worker timing
    # below, so start from a quiet machine
    shutdown_pools()

    circuit = load("rand_seq")
    workload = random_workload(circuit, n_cycles, seed=7)
    population = len(circuit.flops) * n_cycles

    def make_backend():
        return SeuBackend(circuit.copy(), workload, lane_width=1)

    # identity scenario: 24 chunks of 30.  Overhead
    # measurement: a 2x-longer workload in 60-point chunks — the cadence
    # real campaigns run at, long enough that per-campaign constants
    # (submit, plan, report replay) amortize the way they do in practice.
    config = EngineConfig(batch_size=30, executor="serial")
    overhead_workload = random_workload(circuit, 2 * n_cycles, seed=7)
    overhead_config = EngineConfig(batch_size=60, executor="serial")

    def make_overhead_backend():
        return SeuBackend(circuit.copy(), overhead_workload, lane_width=1)

    def signature(report):
        return ([(i.location, i.cycle, i.outcome) for i in report.injections],
                report.outcomes, report.total, report.converged,
                report.confidence_interval("failure"))

    reference = run_campaign(make_backend(), config)
    overhead_reference = run_campaign(make_overhead_backend(),
                                      overhead_config)

    # identity under host chaos: 4 local worker processes, one SIGKILLed
    # the moment it claims its 2nd lease — its chunk must be reassigned
    # (deadline expiry) and the assembled report must stay byte-identical.
    # The 3 peers are held until the scripted worker has died, so the
    # fault fires on every run instead of racing a drained lease table.
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        db_path = os.path.join(tmp, "service.sqlite")
        with CampaignQueue(db_path) as queue:
            job_id = queue.submit(make_backend(), config)
        victim = LocalWorkerPool(db_path, 1, worker_kwargs={
            "lease_ttl": 1.0, "worker_id": "victim",
            "chaos": HostChaos([HostFault("sigkill", after_chunks=2)])})
        victim.start()
        victim.join(timeout=300)
        fault_fired = victim.procs[0].exitcode == -signal.SIGKILL
        with LocalWorkerPool(db_path, 3, worker_kwargs={"lease_ttl": 1.0}):
            with CampaignQueue(db_path) as queue:
                job = queue.wait(job_id, timeout=300)
                if job.state != "done":
                    raise RuntimeError(f"service campaign did not finish: "
                                       f"{job}")
                report = queue.result(job_id)
                takeovers = queue.leases.takeover_total(job.campaign_id)
    report_identical = signature(report) == signature(reference)

    # lease/heartbeat cost: a clean single-worker service run (submit →
    # claim/execute/record per chunk → replay-assembled report) against
    # a direct engine run checkpointing to the same kind of file-backed
    # db.  Rounds are interleaved (direct, service, direct, ...) so slow
    # machine drift cancels out of the min-of-rounds ratio.
    def one_direct():
        with tempfile.TemporaryDirectory(prefix="repro-bench-db-") as t:
            db = CampaignDb(os.path.join(t, "direct.sqlite"))
            start = time.perf_counter()
            run_campaign(make_overhead_backend(), overhead_config, db=db)
            elapsed = time.perf_counter() - start
            db.close()
        return elapsed

    def one_service():
        with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as t:
            db_path = os.path.join(t, "svc.sqlite")
            # client connection opened outside the timed region, exactly
            # like the direct baseline's CampaignDb above
            with CampaignQueue(db_path) as queue:
                start = time.perf_counter()
                job_id = queue.submit(make_overhead_backend(),
                                      overhead_config)
                CampaignWorker(db_path, worker_id="bench",
                               lease_ttl=10.0).run()
                svc_report = queue.result(job_id)
                elapsed = time.perf_counter() - start
        assert signature(svc_report) == signature(overhead_reference)
        return elapsed

    direct_s = service_s = None
    for _ in range(rounds):
        elapsed = one_direct()
        direct_s = elapsed if direct_s is None else min(direct_s, elapsed)
        elapsed = one_service()
        service_s = elapsed if service_s is None else min(service_s, elapsed)
    return {
        "circuit": circuit.name,
        "population": population,
        "overhead_population": len(circuit.flops) * 2 * n_cycles,
        "n_workers": 4,
        "report_identical": report_identical,
        "fault_fired": fault_fired,
        "takeovers": takeovers,
        "direct_s": round(direct_s, 4),
        "service_s": round(service_s, 4),
        "lease_overhead": round(service_s / direct_s, 3) if direct_s
        else float("inf"),
    }


def run_smoke():
    cpus = _host_cpus()
    seu = _seu_scaling()
    ppsfp_stat = _ppsfp_statistical_scaling()
    record = {
        "bench": "engine_smoke",
        "host_cpus": cpus,
        "scaling_meaningful": cpus >= 2,
        "ppsfp_fast_path": _ppsfp_measurement(),
        "eval_gate_dispatch": _eval_gate_measurement(),
        "executor_scaling": {
            "seu": seu,
            "ppsfp_statistical": ppsfp_stat,
            "rsn_diagnosis": _rsn_diagnosis_scaling(),
            "gpgpu_seu": _gpgpu_seu_scaling(),
        },
        "lane_packing": _lane_packing_measurement(),
        "persistent_pool": _persistent_pool_measurement(),
        "compiled_sim": _compiled_sim_measurement(),
        "pattern_shipping": _pattern_shipping_measurement(),
        "vector_core": _vector_core_measurement(),
        "soa_core": _soa_core_measurement(),
        "resilience": _resilience_measurement(),
        "service_resilience": _service_resilience_measurement(),
    }
    if cpus < 2:
        record["note"] = (
            "single-CPU host: process/thread rows measure overhead only; "
            "the >=2x process_x4 target applies to multicore hosts (CI)")
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    return record


def test_engine_smoke(benchmark):
    record = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    ppsfp = record["ppsfp_fast_path"]
    dispatch = record["eval_gate_dispatch"]
    scaling = record["executor_scaling"]

    rows = [("ppsfp baseline", f"{ppsfp['baseline_s']:.3f}s", "1.00x", ""),
            ("ppsfp cone cache + dropping", f"{ppsfp['fast_path_s']:.3f}s",
             f"{ppsfp['speedup']:.2f}x",
             "identical" if ppsfp["coverage_identical"] else "MISMATCH"),
            ("eval_gate if/elif chain", f"{dispatch['chain_s']:.3f}s",
             "1.00x", ""),
            ("eval_gate dispatch table", f"{dispatch['dispatch_s']:.3f}s",
             f"{dispatch['speedup']:.2f}x", "identical")]
    for workload, data in scaling.items():
        for key, row in data["grid"].items():
            rows.append((f"{workload} {key}", f"{row['elapsed_s']:.3f}s",
                         f"{row['injections_per_s']:.0f} inj/s",
                         f"{row['speedup_vs_serial']:.2f}x"))
    for workload, data in record["lane_packing"].items():
        if not isinstance(data, dict) or "grid" not in data:
            continue
        for key, row in data["grid"].items():
            rows.append((f"lanes {workload} {key}",
                         f"{row['elapsed_s']:.3f}s",
                         f"{row['injections_per_s']:.0f} inj/s",
                         f"{row['speedup_vs_per_point']:.2f}x"
                         + ("" if data["outcome_identical"]
                            else " MISMATCH")))
    pool = record["persistent_pool"]
    rows.append(("pool fresh-per-campaign", f"{pool['fresh_pools_s']:.3f}s",
                 f"{pool['n_campaigns']} campaigns", "1.00x"))
    rows.append(("pool reused", f"{pool['reused_pool_s']:.3f}s",
                 f"{pool['n_campaigns']} campaigns",
                 f"{pool['speedup']:.2f}x"
                 + ("" if pool["outcome_identical"] else " MISMATCH")))
    csim = record["compiled_sim"]
    rows.append(("ppsfp-dict interpreter",
                 f"{csim['ppsfp']['interpreted_s']:.3f}s", "1.00x", ""))
    rows.append(("ppsfp-dict compiled cold",
                 f"{csim['ppsfp']['compiled_cold_s']:.3f}s",
                 f"{csim['ppsfp']['cold_speedup']:.2f}x",
                 "identical" if csim["ppsfp"]["outcome_identical"]
                 else "MISMATCH"))
    rows.append(("ppsfp-dict compiled warm",
                 f"{csim['ppsfp']['compiled_warm_s']:.3f}s",
                 f"{csim['ppsfp']['warm_speedup']:.2f}x",
                 "identical" if csim["ppsfp"]["outcome_identical"]
                 else "MISMATCH"))
    rows.append(("seu packed interpreter",
                 f"{csim['seu']['interpreted_s']:.3f}s", "1.00x", ""))
    rows.append(("seu packed compiled",
                 f"{csim['seu']['compiled_s']:.3f}s",
                 f"{csim['seu']['speedup']:.2f}x",
                 "identical" if csim["seu"]["outcome_identical"]
                 else "MISMATCH"))
    vcore = record["vector_core"]
    for key, row in vcore["grid"].items():
        rows.append((f"vector {key} ({row['backing']})",
                     f"{row['elapsed_s']:.3f}s",
                     f"{row['injections_per_s']:.0f} inj/s",
                     f"{row['speedup_vs_packed']:.2f}x"
                     + ("" if row["identical_vs_per_point"]
                        else " MISMATCH")))
    soa = record["soa_core"]
    if "grid" in soa:
        for key, row in soa["grid"].items():
            rows.append((f"soa {key} int/soa",
                         f"{row['int_s']:.3f}s / {row['soa_s']:.3f}s",
                         f"{soa['gates_per_level']} gates/level, "
                         f"{soa['fused_ops']} fused ops",
                         f"{row['soa_speedup']:.2f}x"
                         + ("" if row["identical"] else " MISMATCH")))
    intern = vcore["interning"]
    rows.append(("det-source interning",
                 f"{intern['cold_s']:.3f}s cold",
                 f"{intern['compiled_sites']} sites / "
                 f"{intern['unique_sources']} sources",
                 f"{intern['cold_vs_warm']:.2f}x warm"))
    res = record["resilience"]
    rows.append(("resilience kill+resume",
                 f"{res['resumed_chunks']} chunks replayed",
                 f"{res['population']} inj",
                 "identical" if res["resume_identical"] else "MISMATCH"))
    rows.append(("resilience quarantine",
                 f"{res['quarantined_points']} points failed",
                 "campaign completed",
                 "ok" if res["quarantine_ok"] else "FAIL"))
    rows.append(("resilience retry overhead",
                 f"{res['guarded_s']:.3f}s armed",
                 f"{res['bare_s']:.3f}s bare",
                 f"{res['retry_overhead']:.3f}x"))
    svc = record["service_resilience"]
    rows.append(("service 4 workers + SIGKILL",
                 f"{svc['takeovers']} takeover(s)",
                 f"{svc['population']} inj",
                 "identical" if svc["report_identical"] else "MISMATCH"))
    rows.append(("service lease overhead",
                 f"{svc['service_s']:.3f}s service",
                 f"{svc['direct_s']:.3f}s direct",
                 f"{svc['lease_overhead']:.3f}x"))
    ship = record["pattern_shipping"]
    rows.append(("ppsfp payload inline",
                 f"{ship['backend_inline_bytes']} B",
                 f"{ship['pattern_bytes']} B patterns", ""))
    rows.append(("ppsfp payload shipped",
                 f"{ship['backend_shipped_bytes']} B",
                 f"{ship['payload_shrink']:.2f}x smaller",
                 "identical" if ship["outcome_identical"] else "MISMATCH"))
    print("\n" + format_table(
        ["path", "time", "speed", "scaling"], rows,
        title=f"Engine smoke — {record['host_cpus']} CPU(s)"))
    print(f"perf record written to {RECORD_PATH.name}")

    # gate thresholds live in one place: the CI regression checker
    from check_engine_regression import check

    assert check(record) == []
    # plus the structural invariant check() takes for granted
    for data in scaling.values():
        counts = {row["injections"] for row in data["grid"].values()}
        assert len(counts) == 1 and counts.pop() > 0


if __name__ == "__main__":
    print(json.dumps(run_smoke(), indent=2))
