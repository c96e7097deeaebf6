"""Output oracle: every campaign of a run must give the same outcomes, and
those outcomes must match the per-point interpreter reference.

The first campaign of a run (the untimed warm-up) becomes the run's
reference: every later campaign's rows — ``(location, cycle, outcome,
detail)`` in report order — must equal it, row for row.  The reference
itself is checked, after the timed phase, on a seeded sample of points
against each workload's per-point interpreter path
(``workloads.*.reference``).  A failed injection is a point of a campaign
that raised, a quarantined point, a row that differs from the reference
row, or a probed point whose outcome differs from the interpreter's.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import Any, Sequence

from repro.engine import Injection


def campaign_rows(report) -> list[tuple]:
    return [(inj.location, inj.cycle, inj.outcome, inj.detail)
            for inj in (*report.skipped, *report.injections)]


def digest(rows: Sequence[tuple]) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


class Oracle:
    """Checks campaigns of one run against the run's reference campaign."""

    def __init__(self) -> None:
        self.reference: list[tuple] | None = None
        self.reference_points: list | None = None
        self.population = 0
        self.outcomes: Counter = Counter()

    def check(self, report) -> int:
        """Failed injections of one finished campaign."""
        rows = campaign_rows(report)
        failed = report.quarantined_points
        if self.reference is None:
            self.reference = rows
            self.reference_points = [
                inj.point for inj in (*report.skipped, *report.injections)]
            self.population = report.planned
            self.outcomes = Counter(row[2] for row in rows)
        elif rows != self.reference:
            failed += sum(1 for got, want in zip(rows, self.reference)
                          if got != want)
            failed += abs(len(rows) - len(self.reference))
        return failed

    def probe(self, workload, inputs: dict, seed: int) -> int:
        """Re-check a seeded sample of the reference campaign's points on
        the interpreter; returns the number that disagree."""
        if not self.reference_points:
            return 0
        rng = random.Random(seed)
        k = min(workload.probe, len(self.reference_points))
        picked = sorted(rng.sample(range(len(self.reference_points)), k))
        points = [self.reference_points[i] for i in picked]
        expected = workload.reference(inputs, points)
        return sum(1 for i, point in zip(picked, points)
                   if self.reference[i][2:] != expected[point])

    @property
    def reference_digest(self) -> str:
        return digest(self.reference or [])


class CorruptingBackend:
    """Transparent wrapper that flips the outcome of a campaign's first
    point — the self-test's proof that the oracle catches a wrong
    result.  Identity attributes mirror the wrapped backend."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.name = inner.name
        self.circuit_name = inner.circuit_name
        self.fault_model = inner.fault_model
        self.workload = inner.workload
        self.lane_width = getattr(inner, "lane_width", 1)
        self.first = inner.enumerate_points()[0]

    def enumerate_points(self):
        return self.inner.enumerate_points()

    def prepare(self) -> None:
        self.inner.prepare()

    def run_batch(self, points):
        out = self.inner.run_batch(points)
        if points and points[0] == self.first:
            inj = out[0]
            out[0] = Injection(point=inj.point, location=inj.location,
                               cycle=inj.cycle, outcome="corrupted",
                               detail=inj.detail)
        return out
