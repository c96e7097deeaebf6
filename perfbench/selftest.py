"""Self-test of the campaign benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks, each through a fresh ``run.py`` process:

* every workload, at a tiny size, emits every metric ``BENCHMARK.json``
  names for its mode, with the declared unit, and resolves every
  injection correctly;
* the traced run of the full-size ``seu_parallel`` workload brings the
  pool workers' spans home;
* the oracle catches a deliberately corrupted outcome
  (``oracle.CorruptingBackend``) in the warm-up reference, in a timed
  campaign and in a traced one: ``failed`` and ``failed_fraction`` are
  above zero and the run is not correct;
* a ``RESCUE_*`` override is refused, and a directory holding only
  ``BENCHMARK.json`` and the benchmark's own files fails without a
  result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "perfbench/run.py"]


def bench(*args: str, env: dict | None = None, cwd: Path = ROOT
          ) -> tuple[int, dict | None, str]:
    """Exit code, parsed result line (None if absent) and stderr."""
    done = subprocess.run([*RUN, *args], capture_output=True, text=True,
                          cwd=str(cwd), env=env, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is not None and "metrics" not in result:
        result = None
    return done.returncode, result, done.stderr


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)

    def metrics(self, label: str, result: dict | None, declared: list
                ) -> None:
        if result is None:
            self.expect(False, f"{label}: printed a result")
            return
        got = result["metrics"]
        for metric in declared:
            entry = got.get(metric["name"])
            self.expect(entry is not None and entry["unit"] == metric["unit"]
                        and isinstance(entry["value"], (int, float)),
                        f"{label}: {metric['name']} [{metric['unit']}]")
        extra = sorted(set(got) - {m["name"] for m in declared})
        self.expect(not extra, f"{label}: no undeclared metrics {extra}")


def main() -> int:
    checks = Checks()
    tiny = ["--seed", "7", "--seconds", "0.5", "--size", "tiny"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, result, err = bench("--workload", workload, "--trace", "0",
                                  *tiny)
        checks.expect(code == 0 and result is not None and result["correct"]
                      and result["failed"] == 0 and result["attempted"] > 0,
                      f"{workload}: tiny run is correct {err[-300:]}")
        checks.metrics(f"{workload} trace 0", result, SPEC["end_to_end"])
        if result is not None:
            checks.expect(all(m["value"] > 0
                              for m in result["metrics"].values()),
                          f"{workload}: end-to-end metrics are non-zero")
        code, result, err = bench("--workload", workload, "--trace", "1",
                                  *tiny)
        checks.expect(code == 0 and result is not None and result["correct"],
                      f"{workload}: tiny traced run is correct {err[-300:]}")
        checks.metrics(f"{workload} trace 1", result, SPEC["per_layer"])

    code, result, err = bench("--workload", "seu_parallel", "--trace", "1",
                              "--seed", "7", "--seconds", "1")
    layers = result["metrics"] if result else {}
    checks.expect(code == 0 and layers.get("executors.choice.process",
                                           {}).get("value", 0) > 0,
                  f"seu_parallel traced: process pool chosen {err[-300:]}")
    checks.expect(layers.get("executors.worker_busy_s", {}).get("value", 0)
                  > 0 and layers.get("backends.prepare_calls",
                                     {}).get("value", 0) > 1,
                  "seu_parallel traced: worker spans reached the parent")

    for corrupt, trace in (("0", "0"), ("1", "0"), ("2", "1")):
        code, result, _ = bench("--workload", "ppsfp_cold", "--trace", trace,
                                "--corrupt", corrupt, *tiny)
        caught = (result is not None and not result["correct"]
                  and result["failed"] > 0 and code != 0)
        if trace == "1" and result is not None:
            caught = caught and result["metrics"]["failed_fraction"][
                "value"] > 0
        checks.expect(caught, f"oracle catches a corrupted outcome in "
                              f"campaign {corrupt} (trace {trace})")

    env = {**os.environ, "RESCUE_NO_COMPILE": "1"}
    code, result, _ = bench("--workload", "ppsfp_cold", "--trace", "0",
                            *tiny, env=env)
    checks.expect(code != 0 and result is None,
                  "a RESCUE_* override is refused")

    bare = ROOT / ".bench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", "ppsfp_cold", "--trace", "0",
                                *tiny, cwd=bare)
        checks.expect(code != 0 and result is None,
                      "a directory without the program fails without a "
                      "result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(checks.failures)} failed check(s)")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
