"""Campaign benchmark: whole fault-injection campaigns, timed from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seu_parallel --seed 1 --seconds 32 --trace 0

Load is a closed loop from one process: one caller, one campaign in
flight; the next campaign starts when the previous one returns.  Each
run sets up (imports, inputs, backend, one untimed warm-up campaign),
then runs campaigns for ``--seconds`` (and at least
``MIN_CAMPAIGNS``), checks every campaign against the oracle
(``oracle.py``) and prints, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the injections of every campaign of the run and
``failed`` those not correctly resolved.  With ``--trace 0`` the metrics
are the end-to-end ones, all host time:

* ``setup_s`` — time from the start of this script to the first timed
  campaign, median of this run's set-up and two more in fresh
  processes;
* ``campaign_s_p50`` / ``campaign_s_tail`` — median and the highest
  percentile with ten campaigns beyond it, of the wall time of one
  ``run_campaign`` call (the percentile and sample count are printed
  on the line before the result);
* ``injections_per_s`` — injections of the timed campaigns over the
  time spent inside their ``run_campaign`` calls;
* ``peak_rss_mb`` — peak resident memory of this process, plus the
  peaks of the pool workers on a pool workload.

With ``--trace 1`` untraced and traced campaigns alternate; the metrics
are the per-layer figures of ``tracing.layer_metrics``, plus
``trace.overhead_ratio`` (traced ÷ untraced median campaign time) and
``failed_fraction``.  End-to-end metrics always come from untraced
runs.  The spans are written to ``.bench_out/``.

The line before the result is the run's decision record: the executor
``auto`` resolved to, lane width, backing and chunk count per campaign,
host facts, and a flag when the executor choice varied within the run.

The benchmark refuses to run while a ``RESCUE_*`` environment override
is set, because those pin non-default tiers.  It writes only below the
checkout (``.bench_run/`` while running, ``.bench_out/`` for traces)
and stops and waits for every process it started.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: A run times at least this many campaigns, so the tail percentile has
#: ten campaigns beyond it.
MIN_CAMPAIGNS = 12
#: Traced runs alternate untraced and traced campaigns, at least this
#: many of each.
MIN_TRACED = 3
#: Set-up samples per run: this process and fresh ones.
SETUP_SAMPLES = 3
#: The timed phase never runs past this, whatever the minimum counts.
MAX_TIMED_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--corrupt", type=int, default=None,
                        help="self-test: flip one outcome of campaign N "
                             "(0 is the warm-up)")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up in this process and exit")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv) -> int:
    args = parse_args(argv)
    overrides = sorted(k for k in os.environ if k.startswith("RESCUE_"))
    if overrides:
        return fail(f"refusing to run with {', '.join(overrides)} set: "
                    "these pin non-default tiers")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {src}")
    sys.path.insert(0, str(src))
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    # pool payloads and shipped blobs go to the temp dir: keep them here
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = None
    try:
        return Bench(args, run_dir).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Bench:
    def __init__(self, args, run_dir: Path) -> None:
        import oracle
        import workloads

        table = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
        if args.workload not in table:
            raise SystemExit(fail(f"unknown workload {args.workload!r}; "
                                  f"pick one of {sorted(table)}"))
        self.args = args
        self.run_dir = run_dir
        self.wl = table[args.workload]
        self.oracle = oracle.Oracle()
        self.attempted = 0
        self.failed = 0
        self.decisions: list[list] = []
        self.db = None

    # -- one campaign --------------------------------------------------
    def campaign(self, index: int, tracer=None) -> tuple[float, object]:
        """Run campaign ``index``; returns (wall seconds, report or None).

        With a ``tracer`` the layer wrappers are installed around this
        campaign only, and a pool workload's backend is wrapped so the
        workers trace too."""
        from oracle import CorruptingBackend
        from repro.engine import run_campaign

        backend = self.wl.backend(self.inputs)
        if self.args.corrupt == index:
            backend = CorruptingBackend(backend)
        runner = backend
        report = None
        with ExitStack() as stack:
            if tracer is not None:
                from tracing import TracingBackend, recording

                if self.wl.workers > 1:
                    runner = TracingBackend(backend, index)
                stack.enter_context(recording(tracer, index))
            t0 = time.perf_counter()
            try:
                report = run_campaign(runner, self.config, db=self.db)
            except Exception as exc:  # a failed campaign is a result
                print(f"campaign {index} raised {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
            wall = time.perf_counter() - t0
        self.account(report, backend)
        return wall, report

    def account(self, report, backend) -> None:
        import workloads

        if report is None:
            self.attempted += self.oracle.population
            self.failed += self.oracle.population
            return
        self.attempted += report.planned
        self.failed += self.oracle.check(report)
        ctx = getattr(getattr(backend, "inner", backend), "_lane_ctx", None)
        self.decisions.append([
            report.executor, self.wl.lane_width,
            getattr(ctx, "backing", None),
            workloads.chunk_count(self.wl, report.planned)])

    # -- the run -------------------------------------------------------
    def run(self) -> int:
        from repro.core import CampaignDb

        self.inputs = self.wl.inputs(self.args.seed)
        self.config = self.wl.config()
        if self.wl.use_db:
            self.db = CampaignDb(self.run_dir / "campaigns.sqlite")
        try:
            self.campaign(0)  # warm-up: untimed, and the oracle reference
            setup_s = time.perf_counter() - T0
            if self.oracle.reference is None:
                print("the warm-up campaign failed", file=sys.stderr)
                return 1
            if self.args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if self.args.trace:
                metrics, samples = self.traced_phase()
            else:
                metrics, samples = self.timed_phase()
            self.failed += self.oracle.probe(self.wl, self.inputs,
                                             self.args.seed)
            self.failed += self.db_check()
            if self.args.trace:
                metrics["failed_fraction"] = (self.failed / self.attempted,
                                              "ratio")
            else:
                metrics["peak_rss_mb"] = (self.peak_rss_mb(), "MB")
                metrics["setup_s"] = (self.setup_median(setup_s), "s")
        finally:
            if self.db is not None:
                self.db.close()
            self.stop_pools()
        self.print_decisions(samples)
        correct = self.failed == 0
        print(json.dumps({
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())},
        }))
        return 0 if correct else 1

    def timed_phase(self) -> dict:
        walls, injections = [], 0
        start = time.perf_counter()
        index = 1
        while self.keep_going(start, len(walls), MIN_CAMPAIGNS):
            wall, report = self.campaign(index)
            index += 1
            if report is not None:
                walls.append(wall)
                injections += report.total
        if len(walls) <= 10:
            raise SystemExit(fail(f"only {len(walls)} campaigns finished; "
                                  "the tail needs more than ten"))
        ordered = sorted(walls)
        n = len(ordered)
        return {
            "campaign_s_p50": (statistics.median(ordered), "s"),
            "campaign_s_tail": (ordered[n - 11], "s"),
            "injections_per_s": (injections / sum(walls), "1/s"),
        }, {"campaigns": n, "tail_percentile": round(100 * (n - 10) / n, 1)}

    def traced_phase(self) -> dict:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced, reports = [], [], []
        start = time.perf_counter()
        index = 1
        while self.keep_going(start, min(len(plain), len(traced)),
                              MIN_TRACED):
            wall, report = self.campaign(index, tracer if index % 2 == 0
                                         else None)
            if report is not None:
                if index % 2 == 0:
                    traced.append(wall)
                    reports.append(report)
                else:
                    plain.append(wall)
            index += 1
        metrics = layer_metrics(tracer.spans, reports, len(traced))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain), "ratio")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{self.args.workload}-"
                                   f"{self.args.seed}.jsonl"))
        return metrics, {"traced": len(traced), "untraced": len(plain)}

    def keep_going(self, start: float, done: int, minimum: int) -> bool:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_TIMED_S:
            return False
        return elapsed < self.args.seconds or done < minimum

    # -- checks and measurements outside the timed region ---------------
    def db_check(self) -> int:
        """Every campaign's rows reached the database."""
        if self.db is None:
            return 0
        counts = self.db.conn.execute(
            "SELECT campaign_id, COUNT(*) FROM injections "
            "GROUP BY campaign_id").fetchall()
        expected = self.oracle.population
        return sum(abs(count - expected) for _, count in counts)

    def peak_rss_mb(self) -> float:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.used_pool():
            from repro.engine.executors import persistent_pool
            from workloads import worker_peak_rss

            pool = persistent_pool(self.wl.workers)
            futures = [pool.submit(worker_peak_rss, 0.3)
                       for _ in range(2 * self.wl.workers)]
            peaks = dict(f.result() for f in futures)
            kib += sum(peaks.values())
        return kib / 1024

    def setup_median(self, own: float) -> float:
        """Median set-up time: this process plus fresh processes."""
        samples = [own]
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--setup-only"]
        for _ in range(SETUP_SAMPLES - 1):
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=str(ROOT), timeout=150, check=True)
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                           ["setup_s"])
        return statistics.median(samples)

    def stop_pools(self) -> None:
        """Stop the engine's pool workers and wait for each to end."""
        import multiprocessing
        from multiprocessing import resource_tracker

        from repro.engine import executors

        if self.used_pool():
            executors.persistent_pool(self.wl.workers).shutdown(
                wait=True, cancel_futures=True)
        executors.shutdown_pools()
        for child in multiprocessing.active_children():
            child.join()
        # spawn-context pools start the semaphore tracker process; it
        # would exit on its own after this process, so stop it now
        tracker = resource_tracker._resource_tracker
        if tracker._pid is not None:
            tracker._stop()

    def used_pool(self) -> bool:
        """Did any campaign run on the persistent process pool?"""
        return any(d[0] == "process" for d in self.decisions)

    def print_decisions(self, samples: dict) -> None:
        import numpy

        executors = sorted({d[0] for d in self.decisions})
        record = {
            "workload": self.wl.name, "seed": self.args.seed,
            "loads": self.wl.loads, "bypasses": self.wl.bypasses,
            "host": {"usable_cpus": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(),
                     "numpy": numpy.__version__},
            "samples": samples,
            "executors": executors,
            "executor_varies": len(executors) > 1,
            "outcomes": dict(sorted(self.oracle.outcomes.items())),
            "digest": self.oracle.reference_digest,
            "campaigns": run_lengths(self.decisions),
        }
        if len(executors) > 1:
            print(f"perfbench: executor choice varied within the run: "
                  f"{executors}", file=sys.stderr)
        print(json.dumps({"decision_record": record}))


def run_lengths(records: list[list]) -> list[list]:
    """``[[count, *record], ...]`` for runs of identical records."""
    out: list[list] = []
    for record in records:
        if out and out[-1][1:] == record:
            out[-1][0] += 1
        else:
            out.append([1, *record])
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
