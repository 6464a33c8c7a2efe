#!/usr/bin/env python3
"""Swish++ dynamic knobs (paper Section 5.1), end to end.

Reproduces the paper's first case study on a simulated search-engine
substrate: a bursty load model drives a dynamic-knob controller that lowers
the number of presented results under load, and the verified relate
statement guarantees users always see either all results (when fewer than
10 matched) or at least the top 10.

The script verifies the acceptability property statically, then runs a load
sweep showing the accuracy/performance trade-off: fraction of ranked score
mass preserved versus formatting-loop iterations saved.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.metrics import MetricSeries
from repro.casestudies.swish import SWISH
from repro.substrates.search import generate_query_results, result_quality


def main() -> int:
    case_study = SWISH

    print("=== static verification (paper: 330 lines of Coq proof script) ===")
    report = case_study.verify()
    print(report.summary())
    if not report.verified:
        return 1

    print()
    print("=== differential simulation under bursty load ===")
    summary = case_study.simulate(runs=60, seed=7)
    print(f"runs                      : {summary.runs}")
    print(f"relate violations         : {summary.relate_violations}")
    print(f"relaxed execution errors  : {summary.relaxed_errors}")
    print(f"mean results (original)   : {summary.mean_metric('presented_original'):.2f}")
    print(f"mean results (relaxed)    : {summary.mean_metric('presented_relaxed'):.2f}")
    print(f"mean iterations saved     : {summary.mean_metric('iterations_saved'):.2f}")

    print()
    print("=== quality of results: ranked score mass preserved ===")
    quality = MetricSeries("quality")
    for record in summary.records:
        presented = int(record.metrics.get("presented_relaxed", 0))
        total = int(record.metrics.get("presented_original", 0))
        results = generate_query_results(max(total, 1), seed=11)
        quality.add(result_quality(results, presented))
    stats = quality.summary()
    print(f"mean fraction of score mass preserved : {stats['mean']:.3f}")
    print(f"minimum fraction preserved            : {stats['min']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
