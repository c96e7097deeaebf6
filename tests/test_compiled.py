"""Tests for the compiled simulation core (`repro.sim.compiled`).

The contract under test: every compiled program — full-circuit,
detection/cone sub-programs, fused sequential step — is byte-identical
to the reference interpreter at any pattern width, survives pickling to
process workers (source ships, code objects rebuild lazily), and is
invalidated by circuit mutation exactly like the structural caches.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import load
from repro.circuit.library import random_combinational, random_sequential
from repro.engine import EngineConfig, PpsfpBackend, SeuBackend, run_campaign
from repro.faults import collapse
from repro.sim import compiled, vector
from repro.sim.fault_sim import (
    _observe_nets,
    detection_mask,
    fault_simulate,
    fault_simulate_batched,
    faulty_values,
    sequential_fault_simulate,
)
from repro.sim.logic import (
    GATE_EVAL_3V,
    X,
    eval_gate_3v,
    mask_of,
    random_patterns,
    simulate,
)
from repro.sim.sequential import SequentialSim
from repro.soft_error import random_workload

WIDTHS = (1, 7, 64)


@pytest.fixture(autouse=True)
def _compile_eagerly(monkeypatch):
    """Remove the hit gate so per-site programs compile on first use —
    these tests exercise the compiled path, not the amortization policy."""
    monkeypatch.setattr(compiled, "COMPILE_AFTER_HITS", 0)


def _random_circuit(seed: int, sequential: bool):
    if sequential:
        return random_sequential(n_inputs=5, n_gates=40, n_flops=6,
                                 n_outputs=4, seed=seed)
    return random_combinational(n_inputs=6, n_gates=50, n_outputs=4,
                                seed=seed)


# ----------------------------------------------------------------------
# property: compiled == interpreted for full-circuit evaluation
# ----------------------------------------------------------------------
class TestSimulateEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans(),
           width=st.sampled_from(WIDTHS), with_state=st.booleans())
    def test_simulate_matches_interpreter(self, seed, sequential, width,
                                          with_state):
        circuit = _random_circuit(seed, sequential)
        pis = random_patterns(circuit.inputs, width, seed=seed + 1)
        state = (random_patterns(circuit.flops, width, seed=seed + 2)
                 if with_state and circuit.flops else None)
        fast = simulate(circuit, pis, width, state)
        reference = simulate(circuit, pis, width, state, compile=False)
        assert fast == reference

    def test_library_circuits_match(self):
        for name in ("c17", "s27", "rand200", "alu8", "mul6", "rand_seq"):
            circuit = load(name)
            for width in WIDTHS:
                pis = random_patterns(circuit.inputs, width, seed=3)
                state = random_patterns(circuit.flops, width, seed=4)
                assert simulate(circuit, pis, width, state) \
                    == simulate(circuit, pis, width, state, compile=False)

    def test_constant_and_buffer_folding(self):
        from repro.circuit.netlist import Circuit

        circuit = Circuit("folds")
        circuit.add_input("a")
        circuit.add_gate("one", "CONST1", [])
        circuit.add_gate("zero", "CONST0", [])
        circuit.add_gate("b", "BUF", ["a"])
        circuit.add_gate("n", "NOT", ["one"])
        circuit.add_gate("x", "AND", ["b", "one"])
        circuit.add_gate("y", "OR", ["zero", "x"])
        circuit.add_output("y")
        for width in WIDTHS:
            pis = {"a": random_patterns(["a"], width, seed=9)["a"]}
            assert simulate(circuit, pis, width) \
                == simulate(circuit, pis, width, compile=False)

    def test_env_kill_switch(self, monkeypatch):
        circuit = load("c17")
        assert compiled.circuit_program(circuit) is not None
        with compiled.disabled():
            assert not compiled.compilation_enabled()
            assert compiled.circuit_program(circuit) is None
        assert compiled.compilation_enabled()


# ----------------------------------------------------------------------
# property: cone/detection sub-programs == interpreter fault simulation
# ----------------------------------------------------------------------
class TestFaultSimEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans(),
           width=st.sampled_from(WIDTHS))
    def test_faulty_values_and_detection(self, seed, sequential, width):
        circuit = _random_circuit(seed, sequential)
        faults, _ = collapse(circuit)
        pis = random_patterns(circuit.inputs, width, seed=seed + 5)
        state = random_patterns(circuit.flops, width, seed=seed + 6)
        good = simulate(circuit, pis, width, state)
        mask = mask_of(width)
        observe = _observe_nets(circuit, True)
        fast = [(faulty_values(circuit, fault, good, mask),
                 detection_mask(circuit, fault, good, mask, observe))
                for fault in faults]
        assert any(isinstance(entry, compiled.DetProgram)
                   for entry in circuit._program_cache.values())
        interp = circuit.copy()
        with compiled.disabled():
            for fault, (values, det) in zip(faults, fast):
                assert faulty_values(interp, fault, good, mask) == values, \
                    fault
                assert detection_mask(interp, fault, good, mask,
                                      observe) == det, fault

    def test_batched_fault_simulation_identical(self):
        circuit = random_combinational(10, 150, seed=8)
        faults, _ = collapse(circuit)
        batches = [(random_patterns(circuit.inputs, 16, seed=50 + b), 16)
                   for b in range(5)]
        for drop in (True, False):
            fast = fault_simulate_batched(circuit, faults, batches,
                                          drop_detected=drop)
            with compiled.disabled():
                ref = fault_simulate_batched(circuit.copy(), faults, batches,
                                             drop_detected=drop)
            assert fast.detected == ref.detected
            assert fast.undetected == ref.undetected

    def test_sequential_fault_simulation_identical(self):
        circuit = load("s27")
        faults, _ = collapse(circuit)
        stimuli = random_workload(circuit, 30, seed=2)
        fast = sequential_fault_simulate(circuit, faults, stimuli)
        with compiled.disabled():
            ref = sequential_fault_simulate(circuit.copy(), faults, stimuli)
        assert fast.detected == ref.detected
        assert fast.undetected == ref.undetected


# ----------------------------------------------------------------------
# property: fused step == evaluate-then-capture, flip hook preserved
# ----------------------------------------------------------------------
class TestStepEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from(WIDTHS))
    def test_step_matches_interpreter(self, seed, width):
        circuit = _random_circuit(seed, sequential=True)
        stimuli = [random_patterns(circuit.inputs, width, seed=seed + c)
                   for c in range(8)]
        fast = SequentialSim(circuit, width)
        ref = SequentialSim(circuit, width, compile=False)
        flop = next(iter(circuit.flops))
        for cyc, stim in enumerate(stimuli):
            if cyc == 2:
                fast.flip_state(flop, 0b11)
                ref.flip_state(flop, 0b11)
            assert fast.step(stim) == ref.step(stim)
            assert fast.state == ref.state
            assert fast.cycle == ref.cycle

    def test_partial_state_falls_back_to_flop_init(self):
        # the interpreter's simulate() defaults a missing flop to its
        # init value; the fused step must not diverge (or KeyError)
        circuit = _random_circuit(77, sequential=True)
        stim = random_patterns(circuit.inputs, 4, seed=1)
        fast = SequentialSim(circuit, 4)
        ref = SequentialSim(circuit, 4, compile=False)
        dropped = next(iter(circuit.flops))
        del fast.state[dropped]
        del ref.state[dropped]
        assert fast.step(stim) == ref.step(stim)
        assert fast.state == ref.state

    def test_dead_logic_is_pruned_but_observables_match(self):
        from repro.circuit.netlist import Circuit

        circuit = Circuit("deadwood")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("live", "AND", ["a", "b"])
        circuit.add_gate("dead", "XOR", ["a", "b"])  # feeds nothing
        circuit.add_flop("q", "live")
        circuit.add_output("q")
        program = compiled.step_program(circuit)
        assert "^" not in program.program.source  # dead XOR pruned
        sim = SequentialSim(circuit, 4)
        ref = SequentialSim(circuit, 4, compile=False)
        stim = {"a": 0b1010, "b": 0b0110}
        assert sim.step(stim) == ref.step(stim)
        assert sim.state == ref.state


# ----------------------------------------------------------------------
# invalidation: mutation recompiles alongside the structural caches
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_mutation_invalidates_programs(self):
        circuit = random_combinational(6, 30, seed=4)
        pis = random_patterns(circuit.inputs, 8, seed=1)
        before = simulate(circuit, pis, 8)
        assert circuit._program_cache  # program built and cached
        new_out = circuit.add_gate("mut_new", "NAND",
                                   [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("mut_new")
        assert not circuit._program_cache  # invalidated with topo/cones
        after = simulate(circuit, pis, 8)
        assert after == simulate(circuit, pis, 8, compile=False)
        assert "mut_new" in after and "mut_new" not in before
        assert new_out.output == "mut_new"

    def test_mutation_invalidates_cone_programs(self):
        circuit = random_combinational(6, 30, seed=4)
        faults, _ = collapse(circuit)
        pis = random_patterns(circuit.inputs, 8, seed=1)
        good = simulate(circuit, pis, 8)
        mask = mask_of(8)
        observe = _observe_nets(circuit, True)
        for fault in faults[:10]:
            detection_mask(circuit, fault, good, mask, observe)
        assert any(isinstance(k, tuple) and k[0] == "det"
                   for k in circuit._program_cache)
        circuit.add_gate("late", "NOT", [circuit.inputs[0]])
        assert not circuit._program_cache
        good = simulate(circuit, pis, 8)
        observe = _observe_nets(circuit, True)
        for fault in faults[:10]:
            det = detection_mask(circuit, fault, good, mask, observe)
            with compiled.disabled():
                assert det == detection_mask(circuit.copy(), fault, good,
                                             mask, observe)


# ----------------------------------------------------------------------
# pickling: source ships, code objects rebuild lazily
# ----------------------------------------------------------------------
class TestPickling:
    def test_compiled_program_roundtrip(self):
        circuit = load("c17")
        program = compiled.circuit_program(circuit)
        program.run(random_patterns(circuit.inputs, 4, seed=1), 4)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.program._fn is None  # only the source travelled
        pis = random_patterns(circuit.inputs, 8, seed=2)
        assert clone.run(pis, 8) == program.run(pis, 8)

    def test_circuit_pickle_drops_program_cache(self):
        circuit = load("rand_seq")
        simulate(circuit, random_patterns(circuit.inputs, 4, seed=1), 4)
        assert circuit._program_cache
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program_cache == {}
        pis = random_patterns(circuit.inputs, 8, seed=3)
        state = random_patterns(circuit.flops, 8, seed=4)
        assert simulate(clone, pis, 8, state) \
            == simulate(circuit, pis, 8, state)

    @pytest.mark.parametrize("executor", ("serial", "thread", "process"))
    def test_compiled_backends_under_process_executor(self, executor):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 12, seed=7)
        report = run_campaign(
            SeuBackend(circuit.copy(), workload),
            EngineConfig(batch_size=16, workers=2, executor=executor))
        rows = [(i.location, i.cycle, i.outcome) for i in report.injections]
        with compiled.disabled():
            ref = run_campaign(
                SeuBackend(circuit.copy(), workload),
                EngineConfig(batch_size=16, executor="serial"))
        assert rows == [(i.location, i.cycle, i.outcome)
                        for i in ref.injections]

    def test_ppsfp_backend_process_identity(self):
        circuit = random_combinational(10, 120, seed=3)
        faults, _ = collapse(circuit)
        batches = [(random_patterns(circuit.inputs, 16, seed=b), 16)
                   for b in range(4)]
        reports = {}
        for executor in ("serial", "process"):
            report = run_campaign(
                PpsfpBackend(circuit.copy(), faults, batches),
                EngineConfig(batch_size=32, workers=2, executor=executor))
            reports[executor] = [(i.location, i.cycle, i.outcome, i.detail)
                                 for i in report.injections]
        assert reports["serial"] == reports["process"]


# ----------------------------------------------------------------------
# engine lanes on the compiled step path
# ----------------------------------------------------------------------
class TestLanesCompiled:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_packed_seu_campaign_identical(self, width):
        circuit = load("rand_seq")
        workload = random_workload(circuit, 20, seed=5)
        fast = run_campaign(
            SeuBackend(circuit.copy(), workload, lane_width=width),
            EngineConfig(batch_size=64, executor="serial"))
        with compiled.disabled():
            ref = run_campaign(
                SeuBackend(circuit.copy(), workload, lane_width=width),
                EngineConfig(batch_size=64, executor="serial"))
        assert [(i.location, i.cycle, i.outcome) for i in fast.injections] \
            == [(i.location, i.cycle, i.outcome) for i in ref.injections]


# ----------------------------------------------------------------------
# vector tier: the same sources over uint64 block arrays
# ----------------------------------------------------------------------
VECTOR_WIDTHS = (1, 64, 65, 192, 1000)

needs_numpy = pytest.mark.skipif(not vector.HAVE_NUMPY,
                                 reason="numpy not installed")


def _as_int(value) -> int:
    """Normalise a vector-program net value (block array or folded
    constant int) to the packed-int representation."""
    return value if isinstance(value, int) else vector.from_blocks(value)


@needs_numpy
class TestVectorPrograms:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), sequential=st.booleans(),
           width=st.sampled_from(VECTOR_WIDTHS))
    def test_vector_circuit_program_matches_interpreter(self, seed,
                                                        sequential, width):
        circuit = _random_circuit(seed, sequential)
        prog = compiled.vector_circuit_program(circuit, width)
        pis = random_patterns(circuit.inputs, width, seed=seed + 1)
        state = random_patterns(circuit.flops, width, seed=seed + 2) \
            if circuit.flops else None
        got = {net: _as_int(val)
               for net, val in prog.run(pis, state).items()}
        reference = simulate(circuit, pis, width, state, compile=False)
        assert got == reference

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), width=st.sampled_from(VECTOR_WIDTHS))
    def test_vector_step_program_matches_scalar(self, seed, width):
        circuit = _random_circuit(seed, sequential=True)
        vprog = compiled.vector_step_program(circuit, width)
        sprog = compiled.step_program(circuit)
        pis = random_patterns(circuit.inputs, width, seed=seed + 3)
        state = random_patterns(circuit.flops, width, seed=seed + 4)
        mask = mask_of(width)
        pos_s, nxt_s = sprog.run(pis, state, mask)
        pos_v, nxt_v = vprog.run(pis, state)
        assert {po: _as_int(v) for po, v in pos_v.items()} == pos_s
        assert {q: _as_int(v) for q, v in nxt_v.items()} == nxt_s

    def test_vector_det_program_matches_detection_mask(self):
        width = 192
        circuit = random_combinational(8, 80, seed=11)
        faults, _ = collapse(circuit)
        pis = random_patterns(circuit.inputs, width, seed=12)
        good = simulate(circuit, pis, width)
        mask = mask_of(width)
        observe = _observe_nets(circuit, True)
        blocks = vector.blocks_for(width)
        good_nd = vector.to_block_dict(good, blocks)
        checked = 0
        for fault in faults[:40]:
            expected = detection_mask(circuit, fault, good, mask, observe)
            vdet = compiled.vector_det_program(circuit, fault.line, observe,
                                               width)
            if vdet is None:  # no combinational cone for this line
                continue
            forced = vector.mask_array(width) if fault.value \
                else vector.zeros(blocks)
            assert _as_int(vdet.detect(good_nd, forced)) == expected, fault
            checked += 1
        assert checked  # the loop exercised real detection programs

    def test_vector_program_pickle_roundtrip(self):
        circuit = load("rand_seq")
        width = 256
        prog = compiled.vector_step_program(circuit, width)
        pis = random_patterns(circuit.inputs, width, seed=6)
        state = random_patterns(circuit.flops, width, seed=7)
        prog.run(pis, state)  # force compile before shipping
        clone = pickle.loads(pickle.dumps(prog))
        assert clone.scalar.program._fn is None  # only source travelled
        assert clone._mask is None  # lane mask rebuilds lazily
        pos_c, nxt_c = clone.run(pis, state)
        pos_p, nxt_p = prog.run(pis, state)
        assert {k: _as_int(v) for k, v in pos_c.items()} \
            == {k: _as_int(v) for k, v in pos_p.items()}
        assert {k: _as_int(v) for k, v in nxt_c.items()} \
            == {k: _as_int(v) for k, v in nxt_p.items()}

    def test_mutation_invalidates_vector_programs(self):
        circuit = random_combinational(6, 30, seed=4)
        width = 65
        pis = random_patterns(circuit.inputs, width, seed=1)
        compiled.vector_circuit_program(circuit, width).run(pis)
        assert ("vfull", width) in circuit._program_cache
        circuit.add_gate("vmut", "NAND",
                         [circuit.inputs[0], circuit.inputs[1]])
        circuit.add_output("vmut")
        assert not circuit._program_cache  # invalidated with topo/cones
        after = compiled.vector_circuit_program(circuit, width).run(pis)
        assert {net: _as_int(v) for net, v in after.items()} \
            == simulate(circuit, pis, width, compile=False)

    def test_scalar_and_vector_share_compiled_source(self):
        circuit = load("rand_seq")
        sprog = compiled.step_program(circuit)
        vprog = compiled.vector_step_program(circuit, 192)
        assert vprog.scalar is sprog  # one codegen, one compile()

    def test_backing_resolution(self, monkeypatch):
        assert vector.resolve_backing(64) == "int"
        assert vector.resolve_backing(1000) == "int"  # below crossover
        assert vector.resolve_backing(1000, "soa") == "soa"
        monkeypatch.setattr(vector, "SOA_ANY_WIDTH_LANES", 512)
        # past the any-width crossover the SoA kernel tier takes over;
        # ints stay reachable explicitly or via the env
        assert vector.resolve_backing(1000) == "soa"
        monkeypatch.setenv(vector.ENV_BACKING, "int")
        assert vector.resolve_backing(1000) == "int"
        with pytest.raises(ValueError, match="backing"):
            vector.resolve_backing(65, "bogus")
        with pytest.raises(ValueError, match="backing"):
            vector.resolve_backing(65, "ndarray")  # removed backing

    def test_block_conversions_roundtrip(self):
        for width in VECTOR_WIDTHS:
            blocks = vector.blocks_for(width)
            full = (1 << width) - 1
            for value in (0, 1, full, full >> 1, 0x5 << max(0, width - 4)):
                arr = vector.to_blocks(value & full, blocks)
                assert vector.from_blocks(arr) == value & full


# ----------------------------------------------------------------------
# per-site source interning (shared compiles across identical cones)
# ----------------------------------------------------------------------
class TestSourceInterning:
    def test_identical_sources_share_programs(self):
        circuit = random_combinational(10, 200, seed=5)
        faults, _ = collapse(circuit)
        observe = _observe_nets(circuit, True)
        progs = []
        for fault in faults:
            det = compiled.det_program(circuit, fault.line, observe)
            if det is not None:
                progs.append(det.program)
        sources = {p.source for p in progs}
        identities = {id(p) for p in progs}
        assert len(identities) == len(sources)  # one program per source
        assert len(sources) < len(progs)  # collapsed lists do duplicate

    def test_intern_table_invalidates_with_cache(self):
        circuit = random_combinational(6, 40, seed=9)
        faults, _ = collapse(circuit)
        observe = _observe_nets(circuit, True)
        compiled.det_program(circuit, faults[0].line, observe)
        assert "_interned" in circuit._program_cache
        circuit.add_gate("imut", "NOT", [circuit.inputs[0]])
        assert not circuit._program_cache  # interned sources dropped too


# ----------------------------------------------------------------------
# three-valued dispatch table (PODEM's inner loop)
# ----------------------------------------------------------------------
class TestThreeValuedDispatch:
    def _reference(self, gate, values):
        """The pre-dispatch if/elif semantics, restated."""
        from repro.circuit.netlist import GateType

        def and3(ins):
            if any(v == 0 for v in ins):
                return 0
            if all(v == 1 for v in ins):
                return 1
            return X

        def or3(ins):
            if any(v == 1 for v in ins):
                return 1
            if all(v == 0 for v in ins):
                return 0
            return X

        def xor3(ins):
            if any(v is X for v in ins):
                return X
            return sum(ins) & 1

        def not3(v):
            return X if v is X else 1 - v

        gtype = gate.gtype
        if gtype is GateType.CONST0:
            return 0
        if gtype is GateType.CONST1:
            return 1
        ins = [values.get(i, X) for i in gate.inputs]
        if gtype is GateType.BUF:
            return ins[0]
        if gtype is GateType.NOT:
            return not3(ins[0])
        if gtype is GateType.AND:
            return and3(ins)
        if gtype is GateType.NAND:
            return not3(and3(ins))
        if gtype is GateType.OR:
            return or3(ins)
        if gtype is GateType.NOR:
            return not3(or3(ins))
        if gtype is GateType.XOR:
            return xor3(ins)
        return not3(xor3(ins))

    def test_table_covers_every_gate_type(self):
        from repro.circuit.netlist import GateType

        assert set(GATE_EVAL_3V) == set(GateType)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dispatch_matches_reference(self, data):
        import itertools

        from repro.circuit.netlist import Gate, GateType

        gtype = data.draw(st.sampled_from(list(GateType)))
        if gtype in (GateType.CONST0, GateType.CONST1):
            arity = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = data.draw(st.integers(2, 4))
        names = [f"i{k}" for k in range(arity)]
        gate = Gate("out", gtype, tuple(names))
        for combo in itertools.product((0, 1, X, "absent"), repeat=arity):
            values = {n: v for n, v in zip(names, combo) if v != "absent"}
            assert eval_gate_3v(gate, values) \
                == self._reference(gate, values), (gtype, combo)

    def test_simulate_3v_uses_table(self):
        from repro.sim.logic import simulate_3v

        circuit = load("c17")
        for assignment in ({}, {"n1": 1}, {"n1": 0, "n2": 1, "n3": X}):
            values = simulate_3v(circuit, assignment)
            for gate in circuit.topo_order():
                assert values[gate.output] == eval_gate_3v(gate, values)
