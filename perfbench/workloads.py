"""The benchmark's workloads: whole fault-injection campaigns, as users run them.

Every workload calls the public engine API — ``engine.run_campaign`` on
a :class:`~repro.engine.SeuBackend` or :class:`~repro.engine.PpsfpBackend`
with ``EngineConfig()`` defaults (packed lanes, ``executor="auto"``) —
from one caller with one campaign in flight (a closed loop: the next
campaign starts when the previous one returns).  Each campaign gets a
fresh backend, the way a user script builds one per campaign, so
``prepare()`` (golden run, lane context) is part of every campaign.

**Inputs and the seed.**  The circuit of each workload is fixed: it is
part of the workload's definition, like a named benchmark netlist, and
its generator seed is a constant below.  ``--seed`` drives the rest of
the inputs — the SEU stimulus and the PPSFP test patterns.  Seeded
circuits were tried first: across six seeds the packed SEU campaign
cost ranged 0.26-0.38 s and a 2000-gate PPSFP dictionary 2.1-2.6 s,
because the live (cone-of-influence) logic of a random netlist varies
by ±15%.  That spread is larger than any useful regression bound, while
a new stimulus or pattern set leaves the work per campaign unchanged.

**Why three workloads, and why these sizes.**  The 2-CPU host these
were sized on changes speed by up to ±17% from one five-second window
to the next (a fixed pure-Python loop's five-second medians ranged
0.024-0.035 s within one minute; process time tracked wall time, so it
is not stolen time).  A tail percentile with ten campaigns beyond it
then mostly reports the slowest few windows of the run: with 0.45 s
campaigns in a 24 s run the ten slowest campaigns were about one
window, and the tail of ``seu_parallel`` spread 16-25% across ten runs
of the same code.  Two changes steady it: longer runs (32 s), which
cover more windows, and campaigns of about a fortieth of the run
(~0.8 s), so the tail sits near p75 and its ten campaigns span several
windows.  Slower shifts remain: within ten consecutive runs of one
workload the host's speed can step by 20-30% for minutes, which no run
length averages out.  Longer runs only fit the time limit for all runs
with three workloads, so ``seu_packed`` (the serial 64-lane SEU
campaign with a ``CampaignDb``) was dropped: ``seu_parallel`` runs the
same kind of campaign, loads
the same layers (the int step kernel and lanes in the pool workers,
accounting and DB writes in the parent), and the two serial workloads
are the bypass pair for executor changes.  Hence 1000 gates for the
fault dictionary, 96 cycles for the SoA campaign and 350 cycles for
the pool workload.

**Where the time goes.**  Per campaign, traced on a 2-CPU host
(Python 3.11, numpy 2.4): on ``ppsfp_cold`` (~0.8 s) the PPSFP
``run_batch`` takes ~0.87 s of the traced campaign, codegen ~0.03 s of
it, and ``CampaignDb`` writes ~0.05 s; on ``seu_soa_wide`` (~0.85 s)
``prepare()`` takes ~0.33 s (nearly all of it ``lanes.build_context``),
``propagate`` ~0.41 s and the marshalling around it ~0.17 s; on
``seu_parallel`` (~0.8 s) the parent waits ~0.70 s on two workers that
are busy ~1.40 s between them (``propagate`` ~1.23 s), each preparing
the campaign and building its compiled programs again, while the
parent's ``CampaignDb`` writes take ~0.15 s.

**Which per-layer metric should move which end-to-end metric:**

* ``lanes.propagate_s`` and ``lanes.marshal_s`` move ``campaign_s_p50``
  and ``injections_per_s`` on ``seu_soa_wide`` and ``seu_parallel``; no
  change on ``ppsfp_cold``.
* ``backends.prepare_s``, ``lanes.build_context_s`` and
  ``sequential.golden_run_s`` move ``campaign_s_p50`` on
  ``seu_soa_wide`` and on ``seu_parallel``, where every pool worker
  prepares each campaign again.
* ``compiled.build_s`` and ``fault_sim.detect_s`` move
  ``campaign_s_p50`` on ``ppsfp_cold``.  On the warm-cache workloads
  codegen sits in ``setup_s``, so a change that moves codegen between
  set-up and campaigns shows there.
* ``campaign_db.write_s`` moves ``campaign_s_p50`` on ``ppsfp_cold``
  and ``seu_parallel``.  On ``seu_parallel`` the parent's writes share
  the CPUs with the pool workers, so cutting them can save more than
  their share.  Zero on ``seu_soa_wide``.
* ``executors.plan_s``, ``executors.wait_s`` and ``core.self_s`` move
  ``campaign_s_p50`` on ``seu_parallel`` only: serial workloads resolve
  ``auto`` without probing.
* SoA matrix size and block tiling move ``peak_rss_mb`` and
  ``campaign_s_p50`` on ``seu_soa_wide``.
* ``compiled.programs_built`` on ``seu_parallel`` counts the programs
  the pool workers rebuild for every campaign (their circuits arrive
  without a program cache).
"""

from __future__ import annotations

import os
import random
import resource
import time
from dataclasses import dataclass, replace
from typing import Any

from repro.circuit.library import random_combinational, random_sequential
from repro.engine import (DETECTED, UNDETECTED, EngineConfig, PpsfpBackend,
                          SeuBackend)
from repro.engine.lanes import aligned_batch_size
from repro.faults import collapse
from repro.sim import compiled
from repro.sim.fault_sim import detection_mask
from repro.sim.logic import mask_of, random_patterns, simulate
from repro.sim.sequential import SequentialSim
from repro.soft_error import random_workload
from repro.soft_error.seu import inject_seu

#: Generator seed of every workload circuit (see "Inputs and the seed").
CIRCUIT_SEED = 1


@dataclass(frozen=True)
class SeuWorkload:
    """An exhaustive SEU campaign (every flop x every cycle).

    ``lane_width`` is the backend's packing width (64 is the façade
    default); ``workers`` feeds ``EngineConfig(workers=...)`` and
    ``use_db`` adds a ``CampaignDb`` file.  ``probe`` is how many points
    the per-point interpreter reference re-checks after the timed phase.
    """

    name: str
    why: str
    loads: str
    bypasses: str
    n_inputs: int
    n_gates: int
    n_flops: int
    cycles: int
    lane_width: int = 64
    workers: int = 1
    use_db: bool = True
    probe: int = 24

    def config(self) -> EngineConfig:
        return EngineConfig(workers=self.workers)

    def inputs(self, seed: int) -> dict:
        circuit = random_sequential(n_inputs=self.n_inputs,
                                    n_gates=self.n_gates,
                                    n_flops=self.n_flops, seed=CIRCUIT_SEED)
        return {"circuit": circuit,
                "stimuli": random_workload(circuit, self.cycles, seed=seed)}

    def backend(self, inputs: dict) -> SeuBackend:
        """A fresh backend over the shared circuit: its program cache
        stays warm from campaign to campaign."""
        return SeuBackend(inputs["circuit"], inputs["stimuli"],
                          lane_width=self.lane_width)

    def reference(self, inputs: dict, points: list) -> dict:
        """Per-point interpreter outcomes: ``inject_seu`` with compiled
        evaluation switched off, against an interpreted golden run."""
        circuit, stimuli = inputs["circuit"], inputs["stimuli"]
        with compiled.disabled():
            sim = SequentialSim(circuit, 1)
            golden = ([dict(out) for out in sim.run(stimuli)],
                      dict(sim.state))
            return {(flop, cyc): (inject_seu(circuit, stimuli, flop, cyc,
                                             golden), None)
                    for flop, cyc in points}


@dataclass(frozen=True)
class PpsfpWorkload:
    """An exhaustive stuck-at PPSFP fault dictionary with fault dropping.

    Every campaign rebuilds the circuit from the same generator seed, so
    the work is identical but the circuit's program cache starts empty.
    """

    name: str
    why: str
    loads: str
    bypasses: str
    n_inputs: int
    n_gates: int
    n_batches: int
    batch_patterns: int
    workers: int = 1
    use_db: bool = True
    probe: int = 200
    lane_width: int = 1

    def config(self) -> EngineConfig:
        return EngineConfig(workers=self.workers)

    def inputs(self, seed: int) -> dict:
        circuit = self._circuit()
        rng = random.Random(seed)
        batches = [(random_patterns(circuit.inputs, self.batch_patterns,
                                    seed=rng.getrandbits(32)),
                    self.batch_patterns)
                   for _ in range(self.n_batches)]
        return {"batches": batches}

    def _circuit(self):
        return random_combinational(n_inputs=self.n_inputs,
                                    n_gates=self.n_gates, seed=CIRCUIT_SEED)

    def backend(self, inputs: dict) -> PpsfpBackend:
        circuit = self._circuit()
        faults, _ = collapse(circuit)
        return PpsfpBackend(circuit, faults, inputs["batches"])

    def reference(self, inputs: dict, points: list) -> dict:
        """Per-fault ``detection_mask`` over the batches in order, first
        detecting batch wins (the dropping rule), on the interpreter."""
        circuit = self._circuit()
        observe = list(circuit.outputs)
        out = {}
        with compiled.disabled():
            goods = [(simulate(circuit, pis, n), mask_of(n))
                     for pis, n in inputs["batches"]]
            for fault in points:
                acc, offset = 0, 0
                for (good, mask), (_, n) in zip(goods, inputs["batches"]):
                    det = detection_mask(circuit, fault, good, mask, observe)
                    if det:
                        acc = det << offset
                        break
                    offset += n
                out[fault] = (DETECTED if acc else UNDETECTED, acc)
        return out


WORKLOADS: dict[str, Any] = {w.name: w for w in (
    PpsfpWorkload(
        name="ppsfp_cold",
        why="the empty-cache counterpart of the SEU workloads: an "
            "exhaustive "
            "stuck-at fault dictionary (collapsed faults, 10 x 32 "
            "patterns, fault dropping), serial, with a CampaignDb file",
        loads="sim.fault_sim detection, cold sim.compiled codegen of the "
              "full-circuit program, DB writes",
        bypasses="engine.lanes and the SEU golden run",
        n_inputs=24, n_gates=1000, n_batches=10, batch_patterns=32),
    SeuWorkload(
        name="seu_soa_wide",
        why="the only workload on the numpy SoA tier: 4096-lane chunks "
            "that auto-resolve to the SoA kernel, no DB (façade default)",
        loads="SoA block tiling in lanes.propagate, lanes.build_context "
              "and the golden run in prepare()",
        bypasses="CampaignDb, the int step kernel and executor pools",
        n_inputs=80, n_gates=12800, n_flops=320, cycles=96,
        lane_width=4096, use_db=False, probe=3),
    SeuWorkload(
        name="seu_parallel",
        why="the call most users make, on 2 CPUs: an exhaustive SEU "
            "campaign with façade defaults (64-lane packing), a "
            "CampaignDb file, a warm program cache and "
            "EngineConfig(workers=2), so auto probes and picks the "
            "persistent process pool; the only workload that loads "
            "engine.executors",
        loads="the auto probe, the persistent pool, per-worker prepare() "
              "and the compiled int step kernel in the workers, "
              "parent-side accounting and DB writes competing with 2 "
              "workers for the CPUs",
        bypasses="sim.fault_sim and the SoA tier; the serial workloads "
                 "are its bypass pair for executor changes",
        n_inputs=10, n_gates=400, n_flops=40, cycles=350, workers=2),
)}

#: Tiny sizes of every workload for the self-test: the same code paths
#: (backends, executors, DB, SoA width) on inputs that run in well under
#: a second.
TINY: dict[str, Any] = {
    "ppsfp_cold": replace(WORKLOADS["ppsfp_cold"], n_gates=80, n_batches=3,
                          probe=40),
    "seu_soa_wide": replace(WORKLOADS["seu_soa_wide"], n_inputs=60,
                            n_gates=1600, n_flops=200, cycles=8,
                            lane_width=1024, probe=2),
    "seu_parallel": replace(WORKLOADS["seu_parallel"], n_gates=60,
                            n_flops=8, cycles=24, probe=8),
}


def chunk_count(workload, planned: int) -> int:
    """The engine's chunk count for ``planned`` points (the lane-aligned
    chunk size is a pure function of lane width and batch size)."""
    size = aligned_batch_size(workload.lane_width, EngineConfig().batch_size)
    return -(-planned // size)


def worker_peak_rss(hold_s: float) -> tuple[int, int]:
    """``(pid, peak RSS in KiB)`` of the pool worker that runs this task.

    Held for ``hold_s`` so that concurrent copies land on different
    workers."""
    time.sleep(hold_s)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
