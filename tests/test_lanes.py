"""Tests for lane-packed injection simulation (`repro.engine.lanes`),
the persistent worker pool, and the round-batching facades.

The load-bearing property is *lane exactness*: packed campaigns must
produce byte-identical outcome multisets to the per-point path at every
lane width — including vector-tier widths beyond 64, on both the
packed-int and SoA backings — on every executor, with and without
the point-filter stage.
"""

import logging
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import load
from repro.circuit.library import random_sequential
from repro.engine import (
    CompositeBackend,
    EngineConfig,
    SeuBackend,
    SlicingBackend,
    run_campaign,
    shutdown_pools,
)
from repro.engine import executors as executors_mod
from repro.engine import lanes
from repro.engine.workloads import GpgpuSeuBackend
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.soft_error import random_workload
from repro.soft_error.seu import _golden_run, inject_seu

WIDTHS = (1, 7, 64)
VECTOR_WIDTHS = (65, 192, 1000)
BACKINGS = ("int", "soa")
EXECUTORS = ("serial", "thread", "process")

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


@pytest.fixture(scope="module")
def seq_setup():
    circuit = load("rand_seq")
    return circuit, random_workload(circuit, 20, seed=7)


def _rows(report):
    return [(i.location, i.cycle, i.outcome)
            for i in report.injections + report.skipped]


# ----------------------------------------------------------------------
# SEU lane packing
# ----------------------------------------------------------------------
class TestSeuLanes:
    def test_outcomes_identical_across_widths(self, seq_setup):
        circuit, workload = seq_setup
        reference = None
        for width in WIDTHS:
            backend = SeuBackend(circuit.copy(), workload, lane_width=width)
            report = run_campaign(backend,
                                  EngineConfig(batch_size=64,
                                               executor="serial"))
            if reference is None:
                reference = _rows(report)
            else:
                assert _rows(report) == reference, f"width {width} diverged"
        assert reference  # the campaign actually ran

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_packed_identical_across_executors(self, seq_setup, executor):
        circuit, workload = seq_setup
        serial = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=64),
            EngineConfig(batch_size=16, executor="serial"))
        other = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=64),
            EngineConfig(batch_size=16, workers=2, executor=executor))
        assert _rows(other) == _rows(serial)
        shutdown_pools()

    def test_packed_matches_per_point_with_dead_flop_filter(self, seq_setup):
        circuit, workload = seq_setup
        reports = {}
        for width in (1, 64):
            backend = SeuBackend(circuit.copy(), workload,
                                 skip_dead_flops=True, lane_width=width)
            reports[width] = run_campaign(
                backend, EngineConfig(batch_size=32, executor="serial"))
        assert _rows(reports[1]) == _rows(reports[64])
        # the filter actually fired and outcomes still cover all points
        assert reports[64].total == reports[64].population

    def test_packed_run_matches_inject_seu_directly(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=64)
        backend.prepare()
        points = list(backend.enumerate_points())[:70]  # spans two lanes
        golden = _golden_run(circuit, workload)
        expected = [inject_seu(circuit, workload, flop, cyc, golden)
                    for flop, cyc in points]
        got = [inj.outcome for inj in backend.run_batch(points)]
        assert got == expected

    def test_lane_width_one_uses_per_point_path(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=1)
        backend.prepare()
        assert backend._lane_ctx is None  # no packed context built

    def test_out_of_range_cycles_masked_like_per_point(self, seq_setup):
        circuit, workload = seq_setup
        cycles = [-1, 0, 1, len(workload) + 5]  # flip never fires at ends
        rows = {}
        for width in (1, 64):
            backend = SeuBackend(circuit.copy(), workload, cycles=cycles,
                                 lane_width=width)
            report = run_campaign(backend, EngineConfig(executor="serial"))
            rows[width] = _rows(report)
        assert rows[1] == rows[64]
        assert all(out == "masked" for _loc, cyc, out in rows[64]
                   if cyc < 0 or cyc >= len(workload))

    def test_oversized_group_rejected(self, seq_setup):
        circuit, workload = seq_setup
        ctx = lanes.build_context(circuit, workload, 4)
        points = [(flop, 0) for flop in list(circuit.flops)[:2]] * 3
        with pytest.raises(ValueError, match="exceed lane width"):
            lanes.seu_outcomes(ctx, points)

    def test_dead_flop_cone_cache_survives_campaigns(self, seq_setup,
                                                     monkeypatch):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, skip_dead_flops=True)
        calls = []
        from repro.circuit import levelize

        real = levelize.fanout_cone

        def counting(circuit_, seeds, through_flops=False):
            calls.append(tuple(seeds))
            return real(circuit_, seeds, through_flops=through_flops)

        monkeypatch.setattr(levelize, "fanout_cone", counting)
        first = run_campaign(backend, EngineConfig(executor="serial"))
        n_first = len(calls)
        assert n_first == len(backend.targets)  # one cone per flop
        second = run_campaign(backend, EngineConfig(executor="serial"))
        assert len(calls) == n_first  # cached: no recompute on rerun
        assert _rows(first) == _rows(second)


# ----------------------------------------------------------------------
# vector tier: widths beyond 64 on both backings
# ----------------------------------------------------------------------
class TestVectorLanes:
    @pytest.fixture(scope="class")
    def reference_rows(self, seq_setup):
        circuit, workload = seq_setup
        report = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(executor="serial"))
        return _rows(report)

    @needs_numpy
    @pytest.mark.parametrize("backing", BACKINGS)
    @pytest.mark.parametrize("width", VECTOR_WIDTHS)
    def test_seu_identical_to_per_point(self, seq_setup, reference_rows,
                                        width, backing):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload, lane_width=width,
                             lane_backing=backing)
        report = run_campaign(backend, EngineConfig(executor="serial"))
        assert _rows(report) == reference_rows
        backend.prepare()
        assert backend._lane_ctx.backing == backing

    @needs_numpy
    @pytest.mark.parametrize("backing", BACKINGS)
    def test_slicing_identical_to_64(self, backing):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        faults = faults[:30]
        workload = random_workload(circuit, 12, seed=3)
        ref = run_campaign(
            SlicingBackend(circuit.copy(), faults, workload, lane_width=64),
            EngineConfig(batch_size=32, executor="serial"))
        wide = run_campaign(
            SlicingBackend(circuit.copy(), faults, workload, lane_width=192,
                           lane_backing=backing),
            EngineConfig(batch_size=32, executor="serial"))
        assert sorted(_rows(wide)) == sorted(_rows(ref))

    @needs_numpy
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000),
           width=st.sampled_from(VECTOR_WIDTHS),
           backing=st.sampled_from(BACKINGS))
    def test_property_vector_equals_packed_equals_interpreter(
            self, seed, width, backing):
        circuit = random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                    n_outputs=4, seed=seed)
        workload = random_workload(circuit, 10, seed=seed + 1)

        def rows(width_, backing_=None):
            backend = SeuBackend(circuit.copy(), workload,
                                 lane_width=width_, lane_backing=backing_)
            return _rows(run_campaign(backend,
                                      EngineConfig(executor="serial")))

        packed = rows(64)
        assert rows(width, backing) == packed
        with compiled.disabled():
            assert rows(width, backing) == packed  # interpreter reference

    @needs_numpy
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_wide_lanes_across_executors(self, seq_setup, executor):
        circuit, workload = seq_setup
        serial = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=256),
            EngineConfig(batch_size=64, executor="serial"))
        other = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=256),
            EngineConfig(batch_size=64, workers=2, executor=executor))
        assert _rows(other) == _rows(serial)
        shutdown_pools()

    @needs_numpy
    def test_auto_backing_crossover(self, seq_setup, monkeypatch):
        circuit, workload = seq_setup
        ctx = lanes.build_context(circuit, workload, 256)
        assert ctx.backing == "int"  # below the crossover
        monkeypatch.setattr(vector, "SOA_ANY_WIDTH_LANES", 128)
        ctx = lanes.build_context(circuit, workload, 256)
        # past the any-width crossover the SoA kernel tier takes over
        assert ctx.backing == "soa"
        monkeypatch.setenv(vector.ENV_BACKING, "int")
        ctx = lanes.build_context(circuit, workload, 256)
        assert ctx.backing == "int"  # env override beats auto

    def test_degrades_to_64_without_numpy(self, seq_setup, monkeypatch,
                                          caplog):
        circuit, workload = seq_setup
        monkeypatch.setattr(vector, "HAVE_NUMPY", False)
        monkeypatch.setattr(vector, "_warned_no_numpy", False)
        with caplog.at_level(logging.WARNING, logger="repro.sim.vector"):
            backend = SeuBackend(circuit.copy(), workload, lane_width=1000)
        assert backend.lane_width == 64  # degraded, not crashed
        assert any("numpy unavailable" in rec.message
                   for rec in caplog.records)
        # the warning is one-time: a second backend stays quiet
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.vector"):
            SeuBackend(circuit.copy(), workload, lane_width=1000)
        assert not caplog.records
        # and outcomes still match the packed-64 reference
        report = run_campaign(backend, EngineConfig(executor="serial"))
        ref = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=64),
            EngineConfig(executor="serial"))
        assert _rows(report) == _rows(ref)

    @needs_numpy
    def test_wide_default_batches_fill_the_lane(self, seq_setup):
        # the engine raises the default batch size to one full lane for
        # vector-tier widths (underfilled wide words waste the tier)
        circuit, workload = seq_setup
        sizes = []
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        backend = SeuBackend(circuit.copy(), workload, lane_width=128)
        run_campaign(backend, EngineConfig(executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 128 for size in sizes[:-1])
        # an explicit batch_size is respected
        sizes.clear()
        previous = 0
        backend = SeuBackend(circuit.copy(), workload, lane_width=128)
        run_campaign(backend, EngineConfig(batch_size=32, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 32 for size in sizes[:-1])


# ----------------------------------------------------------------------
# slicing lane packing
# ----------------------------------------------------------------------
class TestSlicingLanes:
    @pytest.fixture(scope="class")
    def slicing_setup(self):
        circuit = load("rand_seq")
        faults, _ = collapse(circuit)
        return circuit, faults[:30], random_workload(circuit, 12, seed=3)

    @pytest.mark.parametrize("use_filter", (False, True))
    def test_outcomes_identical_across_widths(self, slicing_setup,
                                              use_filter):
        circuit, faults, workload = slicing_setup
        reference = None
        for width in WIDTHS:
            backend = SlicingBackend(circuit.copy(), faults, workload,
                                     use_filter=use_filter, lane_width=width)
            report = run_campaign(backend,
                                  EngineConfig(batch_size=32,
                                               executor="serial"))
            rows = sorted(_rows(report))
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"width {width} diverged"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_packed_identical_across_executors(self, slicing_setup, executor):
        circuit, faults, workload = slicing_setup
        serial = run_campaign(
            SlicingBackend(circuit.copy(), faults, workload, lane_width=64),
            EngineConfig(batch_size=32, executor="serial"))
        other = run_campaign(
            SlicingBackend(circuit.copy(), faults, workload, lane_width=64),
            EngineConfig(batch_size=32, workers=2, executor=executor))
        assert _rows(other) == _rows(serial)
        shutdown_pools()

    def test_facades_still_lossless_with_lanes(self, slicing_setup):
        from repro.safety.slicing import (run_naive_campaign,
                                          run_sliced_campaign,
                                          verify_equivalence)

        circuit, faults, workload = slicing_setup
        naive = run_naive_campaign(circuit, faults, workload,
                                   executor="serial")
        sliced = run_sliced_campaign(circuit, faults, workload,
                                     executor="serial")
        per_point = run_naive_campaign(circuit, faults, workload,
                                       executor="serial", lane_width=1)
        assert verify_equivalence(naive, sliced)
        assert verify_equivalence(naive, per_point)


# ----------------------------------------------------------------------
# GPGPU golden-prefix forking
# ----------------------------------------------------------------------
class TestGpgpuForking:
    def test_outcomes_identical_across_widths(self):
        import random

        from repro.gpgpu import reduction_kernel
        from repro.gpgpu.apps import _draw_faults, _run

        rng = random.Random(2)
        inputs = [rng.randrange(256) for _ in range(128)]
        kernel = reduction_kernel()
        _golden, issues = _run(kernel, inputs, [])
        faults = _draw_faults(rng, 100, 32, issues)
        reference = None
        for width in (1, 8, 64):
            backend = GpgpuSeuBackend(kernel, inputs, faults,
                                      label="reduction", lane_width=width)
            report = run_campaign(backend,
                                  EngineConfig(batch_size=16,
                                               executor="serial"))
            rows = _rows(report)
            if reference is None:
                reference = rows
            else:
                assert rows == reference, f"width {width} diverged"

    def test_fork_resumes_bit_exact(self):
        import random

        from repro.gpgpu import reduction_kernel
        from repro.gpgpu.simt import SimtCore

        rng = random.Random(5)
        kernel = reduction_kernel()
        full = SimtCore(kernel)
        for i in range(128):
            full.memory[i] = rng.randrange(256)
        snapshot_inputs = list(full.memory[:128])
        total = full.run()
        for cut in (0, 3, total // 2, total - 1):
            core = SimtCore(kernel)
            for i, v in enumerate(snapshot_inputs):
                core.memory[i] = v
            rr = 0
            if cut:
                core.run(max_issues=cut, rr=rr)
                rr = (core.schedule_trace[-1] + 1) % len(core.warps)
            clone = core.fork()
            clone.run(rr=rr)
            assert clone.memory == full.memory
            # the fork is independent: the original can still advance
            core.run(rr=rr)
            assert core.memory == full.memory


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------
class TestPersistentPool:
    def test_pool_reused_across_campaigns_with_identical_results(self):
        shutdown_pools()
        circuit = load("rand_seq")
        workload = random_workload(circuit, 8, seed=7)

        def campaign(reuse):
            return run_campaign(
                SeuBackend(circuit.copy(), workload, lane_width=1),
                EngineConfig(batch_size=8, workers=2, executor="process",
                             reuse_pool=reuse))

        fresh = campaign(False)
        assert not executors_mod._pool_registry  # one-shot pool torn down
        first = campaign(True)
        pool = executors_mod._pool_registry.get(2)
        assert pool is not None
        second = campaign(True)
        assert executors_mod._pool_registry.get(2) is pool  # reused
        assert _rows(fresh) == _rows(first) == _rows(second)
        shutdown_pools()
        assert not executors_mod._pool_registry

    def test_early_stop_drains_without_killing_pool(self):
        from repro.engine import EarlyStop

        shutdown_pools()
        circuit = load("rand_seq")
        workload = random_workload(circuit, 20, seed=7)
        report = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(batch_size=4, workers=2, executor="process",
                         shuffle=True, seed=5,
                         early_stop=EarlyStop(outcome="failure", margin=0.12,
                                              min_injections=12)))
        assert report.converged
        assert 2 in executors_mod._pool_registry  # survived the early stop
        # and the surviving pool still runs full campaigns correctly
        serial = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(batch_size=8, executor="serial"))
        pooled = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=1),
            EngineConfig(batch_size=8, workers=2, executor="process"))
        assert _rows(pooled) == _rows(serial)
        shutdown_pools()


# ----------------------------------------------------------------------
# round batching: composite campaigns
# ----------------------------------------------------------------------
class TestRoundBatching:
    def test_composite_matches_separate_campaigns(self, seq_setup):
        circuit, workload = seq_setup
        part_a = SeuBackend(circuit.copy(), workload, cycles=range(4))
        part_b = SeuBackend(circuit.copy(), workload, cycles=range(4, 8))
        composite = CompositeBackend([("a", part_a), ("b", part_b)])
        fused = run_campaign(composite,
                             EngineConfig(batch_size=16, executor="serial"))
        separate = []
        for cycles in (range(4), range(4, 8)):
            report = run_campaign(
                SeuBackend(circuit.copy(), workload, cycles=cycles),
                EngineConfig(batch_size=16, executor="serial"))
            separate.extend(_rows(report))
        assert [(loc.split(":", 1)[1], cyc, out)
                for loc, cyc, out in _rows(fused)] == separate
        assert fused.population == len(separate)

    def test_composite_rejects_duplicate_tags(self, seq_setup):
        circuit, workload = seq_setup
        backend = SeuBackend(circuit.copy(), workload)
        with pytest.raises(ValueError, match="unique"):
            CompositeBackend([("a", backend), ("a", backend)])

    def test_encoding_style_study_single_campaign(self):
        from repro.core import CampaignDb
        from repro.gpgpu import encoding_style_study

        db = CampaignDb()
        results = encoding_style_study(n_injections=20, executor="serial",
                                       db=db)
        campaigns = db.conn.execute(
            "SELECT COUNT(*) FROM campaigns").fetchone()[0]
        assert campaigns == 1  # both encodings fused into one campaign
        assert [r.encoding for r in results] == ["branchy", "predicated"]
        assert all(r.masked + r.sdc == 20 for r in results)
        db.close()

    def test_diagnostic_test_batched_matches_sequential(self):
        from repro.rsn import (all_rsn_faults, compact_test, diagnostic_test,
                               sib_tree)

        factory = partial(sib_tree, depth=2, regs_per_leaf=1, reg_bits=4)
        faults = all_rsn_faults(factory())
        base = compact_test(factory)
        seq_test, seq_table = diagnostic_test(factory, faults, base,
                                              batch_rounds=False)
        bat_test, bat_table = diagnostic_test(factory, faults, base,
                                              batch_rounds=True)
        assert [(s.bits, s.update) for s in seq_test.steps] \
            == [(s.bits, s.update) for s in bat_test.steps]
        assert seq_table.signatures == bat_table.signatures
        assert seq_table.resolution() == bat_table.resolution()


# ----------------------------------------------------------------------
# engine lane awareness
# ----------------------------------------------------------------------
class TestLaneAwareChunking:
    def test_chunks_align_down_to_lane_multiples(self, seq_setup):
        circuit, workload = seq_setup
        sizes = []
        backend = SeuBackend(circuit.copy(), workload, lane_width=16)
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        run_campaign(backend, EngineConfig(batch_size=24, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 16 for size in sizes[:-1])  # 24 aligned down

    def test_small_batches_not_inflated(self, seq_setup):
        circuit, workload = seq_setup
        sizes = []
        previous = 0

        def on_chunk(report):
            nonlocal previous
            sizes.append(report.total - previous)
            previous = report.total

        backend = SeuBackend(circuit.copy(), workload, lane_width=64)
        run_campaign(backend, EngineConfig(batch_size=8, executor="serial"),
                     on_chunk=on_chunk)
        assert all(size == 8 for size in sizes[:-1])  # early stop unchanged
