#!/usr/bin/env python3
"""Water lock-elision parallelization (paper Section 5.2), end to end.

The parallel phase of Water updates a reduction array ``RS`` without locks;
lost updates make ``RS`` nondeterministic.  The acceptability property is an
integrity property: a later loop that consumes ``RS`` must not write the
``FF`` array out of bounds, even though the branch it takes depends on the
racy values.

The script verifies the property statically (the paper's 310-line Coq
proof), then simulates the racy substrate with increasing thread counts and
reports how many updates the races lose — the accuracy cost the relaxation
trades for lock-free performance — while the integrity property holds in
every run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.casestudies.water import WATER
from repro.substrates.parallel import RacyReductionSimulator, generate_reduction_workload


def main() -> int:
    case_study = WATER

    print("=== static verification (paper: 310 lines of Coq proof script) ===")
    report = case_study.verify()
    print(report.summary())
    if not report.verified:
        return 1

    print()
    print("=== differential simulation with the racy scheduler ===")
    summary = case_study.simulate(runs=40, seed=3)
    print(f"runs                        : {summary.runs}")
    print(f"relate violations           : {summary.relate_violations}")
    print(f"relaxed execution errors    : {summary.relaxed_errors}")
    print(f"mean |RS deviation|         : {summary.mean_metric('rs_total_absolute_deviation'):.2f}")
    print(f"mean FF cells differing     : {summary.mean_metric('ff_cells_differing'):.2f}")

    print()
    print("=== lost updates versus thread count (the relaxation's accuracy cost) ===")
    print(f"{'threads':>8}  {'lost updates':>12}  {'relative error':>15}")
    initial, updates = generate_reduction_workload(cells=8, updates_per_cell=24, seed=5)
    for threads in (1, 2, 4, 8):
        simulator = RacyReductionSimulator(threads=threads, seed=13)
        racy = simulator.run(initial, updates)
        exact = simulator.exact(initial, updates)
        lost = simulator.lost_updates
        total = sum(abs(value) for value in exact) or 1
        error = sum(abs(e - r) for e, r in zip(exact, racy)) / total
        print(f"{threads:>8}  {lost:>12}  {error:>15.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
