#!/usr/bin/env python3
"""The case-study registry, end to end: list, lint, verify, simulate.

The corpus of verified case studies is kept by name in one registry
(`repro.casestudies.registry`).  Every study is a `CaseStudy` value: a
program in the paper's language, which states its own acceptability
spec, plus module-level hooks.  This walkthrough:

1. lists the registered corpus (the paper's Section 5 trio plus four
   further workloads) and resolves studies by name and prefix;
2. runs the `repro casestudy lint` well-formedness gate over the full
   registry — each program parses and round-trips through the
   pretty-printer, its relaxation sites apply, its obligations collect;
3. statically verifies one study (the sum-reduction perforation kernel)
   and differentially simulates it, printing the
   additive-distortion-budget metrics its relate statement talks about;
4. defines, registers and verifies a brand-new study from scratch (see
   docs/adding-a-case-study.md for the narrated version).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.casestudies import (
    CaseStudy,
    all_case_studies,
    get_case_study,
    lint_registry,
    register_case_study,
    unregister_case_study,
)
from repro.semantics.state import State


# The spec lives in the source: no rel_requires clause means the default,
# noninterference (both executions start from the same state).
VOLUME_DIAL = """
vars v, original_v, e, out;
rel_ensures (out<o> - out<r> <= 2 * e<r> && out<r> - out<o> <= 2 * e<r>);
assume(0 <= e);
original_v = v;
relax (v) st (original_v - e <= v && v <= original_v + e);
out = v + v;
relate out: (out<o> - out<r> <= 2 * e<r> && out<r> - out<o> <= 2 * e<r>);
"""


def volume_workloads(count, seed=0):
    return [
        State.of({"v": 10 + index, "original_v": 0, "e": index % 3, "out": 0})
        for index in range(count)
    ]


def main() -> int:
    print("== the registered corpus ==")
    for study in all_case_studies():
        print(f"  {study.name:<26} (paper {study.paper_section})")
    print(f"prefix resolution: 'bnb' -> {get_case_study('bnb').name}")

    print("\n== casestudy lint over the full registry ==")
    for report in lint_registry():
        print(f"  {report.summary().splitlines()[0]}")

    print("\n== verify + simulate sum-reduction-perforation ==")
    study = get_case_study("sum-reduction-perforation")
    verification = study.verify()
    print(f"  verified: {verification.verified}")
    summary = study.simulate(runs=20, seed=7)
    print(f"  {summary.runs} differential runs, "
          f"{summary.relate_violations} relate violations")
    print(f"  mean sum dropped     : {summary.mean_metric('sum_dropped'):.2f}")
    print(f"  mean distortion budget: {summary.mean_metric('distortion_budget'):.2f}")
    print(f"  always within budget : {summary.mean_metric('within_budget') == 1.0}")

    print("\n== registering a study from scratch ==")
    register_case_study(
        CaseStudy(
            name="example-volume-dial",
            source=VOLUME_DIAL,
            workloads_hook=volume_workloads,
        )
    )
    try:
        fresh = get_case_study("example-volume-dial")
        print(f"  registered: {fresh.name}")
        print(f"  verified  : {fresh.verify().verified}")
    finally:
        unregister_case_study("example-volume-dial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
