"""Tests for the SoA compiled tier (`repro.sim.compiled` SoA section).

The contract under test: every SoA program — full-circuit, fused step,
cone, detection — is byte-identical to the scalar compiled tier and the
reference interpreter at any lane width (the whole point of the tier is
perf, so identity must hold unconditionally); programs pickle as pure
index-array metadata and rebuild per worker; circuit mutation
invalidates them like every other program cache; and the tier degrades
to the packed-int path (never crashes, never diverges) when numpy or
compilation is unavailable.
"""

import logging
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import load
from repro.circuit.library import random_combinational, random_sequential
from repro.engine import (
    EngineConfig,
    SeuBackend,
    SlicingBackend,
    run_campaign,
    shutdown_pools,
)
from repro.engine import lanes
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.sim.fault_sim import _observe_nets, detection_mask, faulty_values
from repro.sim.logic import mask_of, random_patterns, simulate
from repro.soft_error import random_workload

# program-level identity runs the full ISSUE width ladder; campaign
# tests stop at 1024 (4096-lane campaigns are all setup, no new code)
SOA_WIDTHS = (1, 64, 65, 192, 1024, 4096)

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


@pytest.fixture(autouse=True)
def _compile_eagerly(monkeypatch):
    """Remove the hit gate so per-site programs build on first use —
    these tests exercise the SoA path, not the amortization policy."""
    monkeypatch.setattr(compiled, "COMPILE_AFTER_HITS", 0)


def _random_circuit(seed: int, sequential: bool):
    if sequential:
        return random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                 n_outputs=4, seed=seed)
    return random_combinational(n_inputs=6, n_gates=50, n_outputs=4,
                                seed=seed)


def _as_int(value) -> int:
    return value if isinstance(value, int) else vector.from_blocks(value)


# ----------------------------------------------------------------------
# property: SoA programs == interpreter / scalar tier, all widths
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaPrograms:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans(),
           width=st.sampled_from(SOA_WIDTHS), with_state=st.booleans())
    def test_circuit_program_matches_interpreter(self, seed, sequential,
                                                 width, with_state):
        circuit = _random_circuit(seed, sequential)
        prog = compiled.soa_circuit_program(circuit, width)
        pis = random_patterns(circuit.inputs, width, seed=seed + 1)
        state = (random_patterns(circuit.flops, width, seed=seed + 2)
                 if with_state and circuit.flops else None)
        got = {net: _as_int(val) for net, val in prog.run(pis, state).items()}
        assert got == simulate(circuit, pis, width, state, compile=False)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from(SOA_WIDTHS))
    def test_step_program_matches_scalar(self, seed, width):
        circuit = _random_circuit(seed, sequential=True)
        soa = compiled.soa_step_program(circuit, width)
        scalar = compiled.step_program(circuit)
        pis = random_patterns(circuit.inputs, width, seed=seed + 3)
        state = random_patterns(circuit.flops, width, seed=seed + 4)
        pos_s, nxt_s = scalar.run(pis, state, mask_of(width))
        pos_v, nxt_v = soa.run(pis, state)
        assert {po: _as_int(v) for po, v in pos_v.items()} == pos_s
        assert {q: _as_int(v) for q, v in nxt_v.items()} == nxt_s

    def test_step_partial_state_falls_back_to_flop_init(self):
        circuit = _random_circuit(77, sequential=True)
        width = 192
        soa = compiled.soa_step_program(circuit, width)
        scalar = compiled.step_program(circuit)
        pis = random_patterns(circuit.inputs, width, seed=1)
        state = random_patterns(circuit.flops, width, seed=2)
        del state[next(iter(circuit.flops))]
        pos_s, nxt_s = scalar.run(pis, state, mask_of(width))
        pos_v, nxt_v = soa.run(pis, state)
        assert {po: _as_int(v) for po, v in pos_v.items()} == pos_s
        assert {q: _as_int(v) for q, v in nxt_v.items()} == nxt_s

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000),
           width=st.sampled_from((65, 192, 1024)))
    def test_cone_and_det_match_interpreter(self, seed, width):
        circuit = _random_circuit(seed, sequential=False)
        faults, _ = collapse(circuit)
        pis = random_patterns(circuit.inputs, width, seed=seed + 5)
        good = simulate(circuit, pis, width)
        mask = mask_of(width)
        observe = _observe_nets(circuit, True)
        blocks = vector.blocks_for(width)
        good_nd = vector.to_block_dict(good, blocks)
        interp = circuit.copy()
        checked = 0
        for fault in faults[::3]:
            cone = compiled.soa_cone_program(circuit, fault.line, width)
            det = compiled.soa_det_program(circuit, fault.line, observe,
                                           width)
            if cone is None or det is None:  # PI/stem corner with no cone
                continue
            forced = (vector.mask_array(width, blocks) if fault.value
                      else vector.zeros(blocks))
            with compiled.disabled():
                ref_vals = faulty_values(interp, fault, good, mask)
                ref_det = detection_mask(interp, fault, good, mask, observe)
            got = cone.apply(good_nd, forced)
            assert {n: _as_int(v) for n, v in got.items()} == ref_vals, fault
            assert _as_int(det.detect(good_nd, forced)) == ref_det, fault
            checked += 1
        assert checked  # the loop exercised real programs

    def test_stats_describe_the_schedule(self):
        circuit = load("rand_seq")
        prog = compiled.soa_step_program(circuit, 1024)
        st_ = prog.stats
        assert st_.gates > 0 and st_.levels > 0
        # fusion is the point: far fewer numpy calls than gates, and at
        # least the two mandatory calls (gather + invert) per level
        assert st_.levels < st_.fused_ops < 6 * st_.levels + st_.gates // 2
        assert st_.scratch_bytes == (2 * prog.kernel.n_slots
                                     * prog.n_blocks * 8)
        # scalar tier reports stats off its generated source; the slot
        # counts need not match (folding differs) but both are populated
        sc = compiled.step_program(circuit).program.stats
        assert sc.gates > 0
        assert sc.scratch_bytes == 0


# ----------------------------------------------------------------------
# engine lanes on the SoA backing
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaLanes:
    @pytest.fixture(scope="class")
    def seq_setup(self):
        circuit = load("rand_seq")
        return circuit, random_workload(circuit, 20, seed=7)

    def _rows(self, report):
        return [(i.location, i.cycle, i.outcome)
                for i in report.injections + report.skipped]

    @pytest.mark.parametrize("width", (65, 192, 1000, 1024))
    def test_seu_identical_to_per_point(self, seq_setup, width):
        circuit, workload = seq_setup
        ref = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(executor="serial"))
        backend = SeuBackend(circuit.copy(), workload, lane_width=width,
                             lane_backing="soa")
        report = run_campaign(backend, EngineConfig(executor="serial"))
        assert self._rows(report) == self._rows(ref)
        backend.prepare()
        assert backend._lane_ctx.backing == "soa"

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000),
           width=st.sampled_from((65, 192, 1000)))
    def test_property_soa_equals_packed_equals_interpreter(self, seed,
                                                           width):
        circuit = random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                    n_outputs=4, seed=seed)
        workload = random_workload(circuit, 10, seed=seed + 1)

        def rows(width_, backing_=None):
            backend = SeuBackend(circuit.copy(), workload,
                                 lane_width=width_, lane_backing=backing_)
            return self._rows(run_campaign(
                backend, EngineConfig(executor="serial")))

        packed = rows(64)
        assert rows(width, "soa") == packed
        with compiled.disabled():
            assert rows(width, "soa") == packed  # interpreter reference

    def test_slicing_identical_to_64(self):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        workload = random_workload(circuit, 12, seed=3)
        ref = run_campaign(
            SlicingBackend(circuit.copy(), faults[:30], workload,
                           lane_width=64),
            EngineConfig(batch_size=32, executor="serial"))
        wide = run_campaign(
            SlicingBackend(circuit.copy(), faults[:30], workload,
                           lane_width=192, lane_backing="soa"),
            EngineConfig(batch_size=32, executor="serial"))
        assert sorted(self._rows(wide)) == sorted(self._rows(ref))

    def test_transient_dispatch_identical_to_per_point(self):
        # SlicingBackend's packed path goes through transient_outcomes:
        # per-lane state deltas injected mid-stream, propagated shared.
        # SoA must honour the same flip schedule as the int backing.
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        workload = random_workload(circuit, 12, seed=3)
        ref = run_campaign(
            SlicingBackend(circuit.copy(), faults[:40], workload,
                           use_filter=False, lane_width=1),
            EngineConfig(executor="serial"))
        soa = run_campaign(
            SlicingBackend(circuit.copy(), faults[:40], workload,
                           use_filter=False, lane_width=256,
                           lane_backing="soa"),
            EngineConfig(executor="serial"))
        assert sorted(self._rows(soa)) == sorted(self._rows(ref))

    def test_soa_survives_process_pickling(self, seq_setup):
        circuit, workload = seq_setup
        serial = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(executor="serial"))
        shipped = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=192,
                       lane_backing="soa"),
            EngineConfig(batch_size=64, workers=2, executor="process"))
        assert self._rows(shipped) == self._rows(serial)
        shutdown_pools()

    def test_soa_falls_back_under_no_compile(self, seq_setup):
        circuit, workload = seq_setup
        with compiled.disabled():
            ctx = lanes.build_context(circuit, workload, 192, backing="soa")
            assert ctx.backing == "int"

    def test_auto_resolution_uses_level_width(self, seq_setup, monkeypatch):
        circuit, workload = seq_setup
        # rand_seq is tiny: a handful of gates per level, so auto keeps
        # the int backing even past SOA_MIN_LANES
        monkeypatch.setattr(vector, "SOA_MIN_LANES", 128)
        ctx = lanes.build_context(circuit, workload, 256)
        assert ctx.backing == "int"
        # ...unless the level-width gate is disabled
        monkeypatch.setattr(vector, "SOA_MIN_LEVEL_WIDTH", 0)
        ctx = lanes.build_context(circuit, workload, 256)
        assert ctx.backing == "soa"
        # explicit request always wins over the hint
        monkeypatch.setattr(vector, "SOA_MIN_LEVEL_WIDTH", 32)
        ctx = lanes.build_context(circuit, workload, 256, backing="soa")
        assert ctx.backing == "soa"
        # beyond the any-width crossover SoA takes over regardless
        monkeypatch.setattr(vector, "SOA_ANY_WIDTH_LANES", 256)
        ctx = lanes.build_context(circuit, workload, 256)
        assert ctx.backing == "soa"


# ----------------------------------------------------------------------
# pickling: metadata ships, lane mask rebuilds lazily
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaPickling:
    def test_step_program_roundtrip(self):
        circuit = load("rand_seq")
        width = 256
        prog = compiled.soa_step_program(circuit, width)
        pis = random_patterns(circuit.inputs, width, seed=6)
        state = random_patterns(circuit.flops, width, seed=7)
        prog.run(pis, state)
        clone = pickle.loads(pickle.dumps(prog))
        assert clone._mask is None  # lane mask rebuilds lazily
        assert clone.n_blocks == prog.n_blocks
        pos_c, nxt_c = clone.run(pis, state)
        pos_p, nxt_p = prog.run(pis, state)
        assert {k: _as_int(v) for k, v in pos_c.items()} \
            == {k: _as_int(v) for k, v in pos_p.items()}
        assert {k: _as_int(v) for k, v in nxt_c.items()} \
            == {k: _as_int(v) for k, v in nxt_p.items()}

    def test_circuit_pickle_drops_soa_cache(self):
        circuit = load("rand_seq")
        compiled.soa_step_program(circuit, 128)
        assert ("soa_step", 128) in circuit._program_cache
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program_cache == {}


# ----------------------------------------------------------------------
# invalidation: mutation drops SoA programs with the other caches
# ----------------------------------------------------------------------
@needs_numpy
class TestSoaInvalidation:
    def test_mutation_invalidates_soa_programs(self):
        circuit = random_combinational(6, 30, seed=4)
        width = 65
        pis = random_patterns(circuit.inputs, width, seed=1)
        compiled.soa_circuit_program(circuit, width).run(pis)
        assert ("soa_full", width) in circuit._program_cache
        circuit.add_gate("smut", "NOR",
                         [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("smut")
        assert not circuit._program_cache  # invalidated with topo/cones
        after = compiled.soa_circuit_program(circuit, width).run(pis)
        assert {net: _as_int(v) for net, v in after.items()} \
            == simulate(circuit, pis, width, compile=False)

    def test_width_wrappers_share_one_meta(self):
        circuit = load("rand_seq")
        a = compiled.soa_step_program(circuit, 128)
        b = compiled.soa_step_program(circuit, 1024)
        assert a.meta is b.meta  # schedule built once per circuit
        assert a.n_blocks != b.n_blocks


# ----------------------------------------------------------------------
# degradation: no numpy, no crash, no divergence
# ----------------------------------------------------------------------
class TestSoaDegradation:
    def test_factories_return_none_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        circuit = load("rand_seq")
        assert compiled.soa_step_program(circuit, 256) is None
        assert compiled.soa_circuit_program(circuit, 256) is None

    def test_backing_degrades_with_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", False)
        with caplog.at_level(logging.WARNING, logger="repro.sim.vector"):
            assert vector.resolve_backing(4096, "soa") == "int"
        assert any("numpy unavailable" in rec.message
                   for rec in caplog.records)

    def test_campaign_without_numpy_matches_packed_64(self, monkeypatch):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 12, seed=9)
        ref = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=64),
            EngineConfig(executor="serial"))
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", True)
        backend = SeuBackend(circuit.copy(), workload, lane_width=2048,
                             lane_backing="soa")
        assert backend.lane_width == 64  # degraded, not crashed
        report = run_campaign(backend, EngineConfig(executor="serial"))
        rows = [(i.location, i.cycle, i.outcome) for i in report.injections]
        assert rows == [(i.location, i.cycle, i.outcome)
                        for i in ref.injections]


# ----------------------------------------------------------------------
# vector helpers grown alongside the tier
# ----------------------------------------------------------------------
@needs_numpy
class TestVectorHelpers:
    def test_mask_array_matches_bigint_path(self):
        for width in (1, 63, 64, 65, 192, 1000, 1024, 4096):
            arr = vector.mask_array(width)
            assert vector.from_blocks(arr) == (1 << width) - 1
            explicit = vector.mask_array(width, vector.blocks_for(width) + 2)
            assert vector.from_blocks(explicit) == (1 << width) - 1

    def test_to_blocks_zero_fast_path(self):
        arr = vector.to_blocks(0, 16)
        assert arr.shape == (16,) and not arr.any()
        arr[0] = 1  # writable (frombuffer views are not)

    def test_calibrate_crossover_cached(self, monkeypatch):
        # register restores: calibration rewrites the module crossovers
        monkeypatch.setattr(vector, "_calibrated", None)
        monkeypatch.setattr(vector, "SOA_MIN_LANES", vector.SOA_MIN_LANES)
        first = vector.calibrate_crossover(level_width=8,
                                           candidates=(64, 256))
        assert first in (64, 256, 1 << 62)
        # second call is a cache hit returning the same value
        assert vector.calibrate_crossover() == first

    def test_outcome_list_wide_matches_probe(self):
        rng = __import__("random").Random(3)
        for count in (65, 200, 1024):
            fail = rng.getrandbits(count)
            latent = rng.getrandbits(count) & ~fail
            wide = lanes._outcome_list(fail, latent, count)
            probe = [lanes.FAILURE if (fail >> i) & 1 else
                     lanes.LATENT if (latent >> i) & 1 else lanes.MASKED
                     for i in range(count)]
            assert wide == probe
