"""Accuracy metrics, parameter sweeps and proof-effort reports.

The CLI reports and the case-study checks need three kinds of analysis:

* **accuracy metrics** for differential executions — absolute/relative
  deviation of results between the original and relaxed executions and the
  fraction of runs inside a bound (the accuracy-envelope figures),
* **parameter sweeps** — run a case-study simulation across a grid of
  parameters (error bound, matrix size, load level) and tabulate a metric,
* **proof-effort reports** — aggregate rule applications, obligations and
  solver statistics per proof layer, the analogue of the paper's
  lines-of-Coq artifact statistics (Section 1.6).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..hoare.verifier import AcceptabilityReport


# ---------------------------------------------------------------------------
# Accuracy metrics
# ---------------------------------------------------------------------------


def absolute_deviation(original: float, relaxed: float) -> float:
    """The absolute difference between original and relaxed results."""
    return abs(original - relaxed)


def relative_deviation(original: float, relaxed: float) -> float:
    """The paper's accuracy notion: |original - relaxed| / |original|
    (0 when the original result is 0 and the relaxed result matches)."""
    if original == 0:
        return 0.0 if relaxed == 0 else float("inf")
    return abs(original - relaxed) / abs(original)


def fraction_within(values: Sequence[float], bound: float) -> float:
    """Fraction of values that are at most ``bound``."""
    if not values:
        return 1.0
    return sum(1 for value in values if value <= bound) / len(values)


@dataclass
class MetricSeries:
    """A named series of metric observations with summary statistics."""

    name: str
    values: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def stdev(self) -> float:
        return statistics.pstdev(self.values) if len(self.values) > 1 else 0.0

    def percentile(self, fraction: float) -> float:
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
        return ordered[index]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stdev": self.stdev,
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
        }


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepPoint:
    """One point of a parameter sweep."""

    parameters: Dict[str, float]
    metrics: Dict[str, float]


@dataclass
class SweepResult:
    """A parameter sweep: a list of points plus tabulation helpers."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, parameters: Mapping[str, float], metrics: Mapping[str, float]) -> None:
        self.points.append(SweepPoint(dict(parameters), dict(metrics)))

    def series(self, parameter: str, metric: str) -> List[Tuple[float, float]]:
        """Return (parameter value, metric value) pairs sorted by parameter."""
        pairs = [
            (point.parameters[parameter], point.metrics[metric])
            for point in self.points
            if parameter in point.parameters and metric in point.metrics
        ]
        return sorted(pairs)

    def table(self, columns: Sequence[str]) -> List[List[float]]:
        rows = []
        for point in self.points:
            merged = {**point.parameters, **point.metrics}
            rows.append([merged.get(column, float("nan")) for column in columns])
        return rows

    def format_table(self, columns: Sequence[str], width: int = 14) -> str:
        header = "".join(column.ljust(width) for column in columns)
        lines = [header, "-" * len(header)]
        for row in self.table(columns):
            lines.append("".join(f"{value:<{width}.4g}" for value in row))
        return "\n".join(lines)


def sweep(
    name: str,
    parameter_grid: Iterable[Mapping[str, float]],
    run: Callable[[Mapping[str, float]], Mapping[str, float]],
) -> SweepResult:
    """Run ``run`` for every parameter combination and collect the metrics."""
    result = SweepResult(name=name)
    for parameters in parameter_grid:
        metrics = run(parameters)
        result.add(parameters, metrics)
    return result


# ---------------------------------------------------------------------------
# Proof-effort reports (the Section 1.6 artifact-statistics analogue)
# ---------------------------------------------------------------------------


@dataclass
class EffortRow:
    """Proof effort for one layer of one case study."""

    case_study: str
    layer: str
    rule_applications: int
    obligations: int
    obligations_discharged: int
    obligation_size: int
    solver_seconds: float
    paper_proof_lines: Optional[int] = None


def effort_rows(
    case_study_name: str,
    report: AcceptabilityReport,
    paper_proof_lines: Optional[int] = None,
) -> List[EffortRow]:
    """Build the per-layer effort rows for one acceptability verification."""
    rows = []
    for layer, verification in (("original", report.original), ("relaxed", report.relaxed)):
        rows.append(
            EffortRow(
                case_study=case_study_name,
                layer=layer,
                rule_applications=verification.total_rule_applications(),
                obligations=len(verification.results),
                obligations_discharged=sum(
                    1 for result in verification.results if result.discharged
                ),
                obligation_size=verification.total_obligation_size(),
                solver_seconds=verification.elapsed_seconds,
                paper_proof_lines=paper_proof_lines if layer == "relaxed" else None,
            )
        )
    return rows


def format_effort_table(rows: Sequence[EffortRow]) -> str:
    """Render effort rows as a fixed-width table."""
    header = (
        f"{'case study':28}{'layer':12}{'rules':8}{'obls':7}{'ok':5}"
        f"{'size':8}{'time(s)':9}{'paper(loc)':10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paper = str(row.paper_proof_lines) if row.paper_proof_lines else "-"
        lines.append(
            f"{row.case_study:28}{row.layer:12}{row.rule_applications:<8}"
            f"{row.obligations:<7}{row.obligations_discharged:<5}"
            f"{row.obligation_size:<8}{row.solver_seconds:<9.3f}{paper:10}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Batch verification reports
# ---------------------------------------------------------------------------


@dataclass
class BatchRow:
    """One line of the ``repro verify-batch`` summary table."""

    program: str
    verified: bool
    obligations: int
    discharged: int
    elapsed_seconds: float
    error: str = ""


def format_batch_table(rows: Sequence[BatchRow]) -> str:
    """Render batch verification rows as a fixed-width table."""
    header = f"{'program':28}{'verdict':14}{'obls':7}{'ok':7}{'time(s)':9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        verdict = "VERIFIED" if row.verified else ("ERROR" if row.error else "NOT VERIFIED")
        lines.append(
            f"{row.program:28}{verdict:14}{row.obligations:<7}"
            f"{row.discharged:<7}{row.elapsed_seconds:<9.3f}"
        )
        if row.error:
            lines.append(f"    {row.error}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Relaxation-space exploration reports
# ---------------------------------------------------------------------------


@dataclass
class ExploreRow:
    """One line of the ``repro explore`` candidate table."""

    candidate: str
    depth: int
    verified: bool
    pareto: bool
    distortion: Optional[float] = None
    savings: Optional[float] = None
    error: str = ""


def format_explore_table(rows: Sequence[ExploreRow]) -> str:
    """Render explorer candidate rows as a fixed-width table.

    Candidate names embed their applied-site chains and can get long, so
    the name column goes last and is left unpadded.
    """
    header = (
        f"{'d':3}{'verdict':10}{'distortion':12}{'savings':9}{'front':7}candidate"
    )
    lines = [header, "-" * 72]
    for row in rows:
        verdict = "VERIFIED" if row.verified else "rejected"
        distortion = f"{row.distortion:.4g}" if row.distortion is not None else "-"
        savings = f"{row.savings:.3f}" if row.savings is not None else "-"
        frontier = "*" if row.pareto else ""
        lines.append(
            f"{row.depth:<3}{verdict:10}{distortion:12}{savings:9}"
            f"{frontier:7}{row.candidate}"
        )
        if row.error:
            lines.append(f"      {row.error}")
    return "\n".join(lines)
