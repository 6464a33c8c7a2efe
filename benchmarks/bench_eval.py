"""E11 — the compiled evaluation layer: closures versus the tree walker.

The dynamic hot paths (bounded model search, havoc/relax model enumeration,
Monte Carlo scoring) evaluate the same interned formulas under very many
valuations.  This benchmark quantifies the three wins of the compiled layer
on that workload:

* **assignment-check throughput** — evaluating a fixed stream of candidate
  assignments with :func:`repro.logic.evaluate.evaluate` (the recursive
  tree walker) versus the compiled closures, same formulas, same
  assignments;
* **bounded-search speedup** — the old blind ``values ** n`` sweep
  re-interpreting the tree per assignment versus
  :func:`repro.solver.models.bounded_model_search` (compiled, unit-pruned,
  cheap-conjunct-first); the acceptance bar is **≥3x**;
* **compile cache behaviour** — cold versus warm closure-compilation hit
  rate, and the unit-propagation prune rate of the searches.

The headline numbers are written to ``benchmarks/bench_eval.json`` so CI
can archive them as a workflow artifact.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_eval.py -q``.
"""

import itertools
import json
import os
import time

from eval_common import tree_search

from repro.logic import formula as F
from repro.logic.compile import compile_formula, compile_stats, reset_compile_stats
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import Const, conj, exists, forall, free_symbols, sym, var
from repro.solver.models import (
    _candidate_values,
    bounded_model_search,
    reset_search_stats,
    search_stats,
)

RADIUS = 4
QUANTIFIER_DOMAIN_RADIUS = 6


def _workload():
    """Search queries shaped like the solver's bounded fallbacks.

    Mostly box-UNSAT formulas (forcing a full sweep, the worst case the
    fallback pays on every UNKNOWN) plus satisfiable ones with and without
    unit atoms, and a quantified query.
    """
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    return [
        # Non-linear, no model in the box: full three-symbol sweep.
        conj(F.eq(x * x + y * y, Const(97)), F.ge(z, Const(0))),
        # Four symbols, two pinned and two bounded by unit atoms: the blind
        # sweep pays values**4, the pruned sweep a few dozen assignments.
        conj(
            F.eq(x, Const(3)),
            F.eq(y, Const(-2)),
            F.ge(z, Const(0)),
            F.le(w, Const(2)),
            F.eq(x * y + z * w, Const(-7)),
        ),
        # Linear but out of reach: full sweep again.
        conj(F.eq(x + y + z, Const(50)), F.le(x, Const(4))),
        # Unit atoms pin/bound two symbols: the pruned sweep collapses.
        conj(F.eq(x, Const(3)), F.ge(y, Const(1)), F.eq(y * y, Const(9)), F.ne(z, Const(0))),
        # Satisfiable non-linear query (found mid-sweep).
        conj(F.eq(x * y, Const(6)), F.gt(x, y)),
        # Quantified body evaluated per assignment.
        conj(
            F.ge(x, Const(0)),
            exists(sym("k"), F.eq(x + y, var("k") * Const(2))),
        ),
        # Universally quantified, false for most assignments.
        conj(
            forall(sym("k"), F.implies(F.ge(var("k"), Const(0)), F.ge(x + var("k"), y))),
            F.le(x, Const(2)),
        ),
    ]


def _tree_search(formula, radius=RADIUS, max_assignments=200_000):
    """The pre-compilation bounded search: blind sweep, tree-walking checks."""
    return tree_search(
        formula,
        radius=radius,
        quantifier_domain_radius=QUANTIFIER_DOMAIN_RADIUS,
        max_assignments=max_assignments,
    )


def test_compiled_bounded_search_speedup(capsys):
    workload = _workload()
    repeats = 5

    # -- assignment-check throughput on a fixed assignment stream ------------
    check_formula = workload[0]
    symbols = sorted(free_symbols(check_formula))
    domain = range(-QUANTIFIER_DOMAIN_RADIUS, QUANTIFIER_DOMAIN_RADIUS + 1)
    assignments = list(itertools.product(_candidate_values(RADIUS), repeat=len(symbols)))

    start = time.perf_counter()
    for assignment in assignments:
        valuation = Valuation(scalars=dict(zip(symbols, assignment)))
        evaluate(check_formula, valuation, domain)
    tree_check_seconds = time.perf_counter() - start

    compiled = compile_formula(check_formula)
    scalars = {}
    start = time.perf_counter()
    for assignment in assignments:
        for symbol, value in zip(symbols, assignment):
            scalars[symbol] = value
        compiled(scalars, {}, domain)
    compiled_check_seconds = time.perf_counter() - start

    tree_rate = len(assignments) / tree_check_seconds
    compiled_rate = len(assignments) / compiled_check_seconds

    # -- end-to-end bounded search: blind tree sweep vs compiled+pruned ------
    start = time.perf_counter()
    tree_results = []
    tree_assignments = 0
    for _ in range(repeats):
        tree_results = []
        for formula in workload:
            model, evaluated = _tree_search(formula)
            tree_results.append(model)
            tree_assignments += evaluated
    tree_seconds = time.perf_counter() - start

    reset_search_stats()
    start = time.perf_counter()
    search_results = []
    for _ in range(repeats):
        search_results = [
            bounded_model_search(formula, radius=RADIUS, max_seconds=None)
            for formula in workload
        ]
    compiled_seconds = time.perf_counter() - start
    stats = search_stats()

    # Same verdict per query (a found model may legitimately differ only if
    # the tree sweep was budget-cut; with no cuts here both find the same).
    assert [m is not None for m in search_results] == [m is not None for m in tree_results]
    assert search_results == tree_results

    speedup = tree_seconds / compiled_seconds if compiled_seconds > 0 else float("inf")
    search_rate = stats["assignments_evaluated"] / compiled_seconds
    tree_search_rate = tree_assignments / tree_seconds

    # -- compile cache: cold vs warm -----------------------------------------
    reset_compile_stats()
    for formula in workload:
        compile_formula(formula)
    warm_stats = compile_stats()  # every node already compiled above: all hits

    payload = {
        "experiment": "E11-compiled-eval",
        "workload_queries": len(workload),
        "check_assignments": len(assignments),
        "tree_check_assignments_per_second": tree_rate,
        "compiled_check_assignments_per_second": compiled_rate,
        "check_speedup": compiled_rate / tree_rate,
        "tree_search_seconds": tree_seconds,
        "compiled_search_seconds": compiled_seconds,
        "search_speedup": speedup,
        "tree_search_assignments_per_second": tree_search_rate,
        "compiled_search_assignments_per_second": search_rate,
        "prune_rate": stats["prune_rate"],
        "assignments_evaluated": stats["assignments_evaluated"],
        "assignment_space": stats["assignment_space"],
        "warm_compile_hit_rate": warm_stats["hit_rate"],
    }
    # Untracked output: the committed bench_eval.json snapshot is refreshed
    # by an explicit copy, not by every local benchmark run.
    output_path = os.path.join(os.path.dirname(__file__), "bench_eval.fresh.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    with capsys.disabled():
        print()
        print("=== E11: compiled evaluation vs tree walking ===")
        print(f"assignment checks       : {tree_rate:,.0f}/s tree -> {compiled_rate:,.0f}/s compiled "
              f"({compiled_rate / tree_rate:.1f}x)")
        print(f"bounded search          : {tree_seconds:.3f}s tree -> {compiled_seconds:.3f}s compiled "
              f"({speedup:.1f}x)")
        print(f"unit-propagation pruning: {stats['prune_rate']:.0%} of the assignment space")
        print(f"warm compile hit rate   : {warm_stats['hit_rate']:.0%}")

    # Acceptance bar: the compiled+pruned search is at least 3x the
    # tree-walking sweep on this microbenchmark.
    assert speedup >= 3.0, f"search speedup {speedup:.2f}x below the 3x bar"
    assert warm_stats["hit_rate"] == 1.0
    assert stats["prune_rate"] > 0.0


def test_search_and_tree_agree_on_satisfiability():
    """Cheap correctness cross-check (no timing): same SAT/None per query."""
    for formula in _workload():
        tree_model, _ = _tree_search(formula)
        model = bounded_model_search(formula, radius=RADIUS, max_seconds=None)
        assert (tree_model is None) == (model is None)
        assert tree_model == model
