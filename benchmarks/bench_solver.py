"""E7 — the decision-procedure substrate (the z3py substitution).

The paper's proofs lean on an automated prover for arithmetic entailments
("verified by an automated theorem prover" for the post-loop case analysis
in Section 5.1).  The reproduction's solver replaces z3py; this experiment
characterises it on the obligation corpus generated by the three case
studies: every obligation must be discharged, and the benchmark times the
obligation corpus, Cooper's quantifier elimination and the cube solver.
"""

import json
import os
import time

import pytest

from repro.casestudies import all_case_studies
from repro.hoare.obligations import ObligationKind
from repro.logic import formula as F
from repro.logic.compile import compile_stats, reset_compile_stats
from repro.logic.formula import Const, Divides, conj, exists, forall, sym, var
from repro.solver.cooper import decide_closed
from repro.solver.interface import Solver
from repro.solver.lia import Status
from repro.solver.models import reset_search_stats, search_stats


def _obligation_corpus():
    corpus = []
    for cls in all_case_studies():
        case_study = cls()
        report = case_study.verify()
        for layer in (report.original, report.relaxed):
            for result in layer.results:
                corpus.append((case_study.name, result.obligation))
    return corpus


def _bounded_search_microbench(repeats: int = 80):
    """Time the bounded model search on a fixed query set.

    The queries force full (pruned) sweeps — the fallback's worst case.
    Besides the absolute ``assignments_per_second``, the same run times the
    pre-compilation blind tree-walking sweep over the identical queries and
    reports ``speedup_vs_tree`` — a *host-independent* ratio, which is what
    the CI perf-regression guard compares against the committed
    ``bench_solver.json`` baseline (a 30% drop in the ratio means the
    compiled search lost ground against the tree walker on the same
    hardware, i.e. a genuine code regression, not a slower runner).
    """
    from eval_common import tree_search

    from repro.solver.models import bounded_model_search

    x, y, z = var("x"), var("y"), var("z")
    queries = [
        conj(F.eq(x * x + y * y, Const(97)), F.ge(z, Const(0))),
        conj(F.eq(x + y + z, Const(50)), F.le(x, Const(4))),
        conj(F.eq(x, Const(3)), F.ge(y, Const(1)), F.eq(y * y, Const(9))),
        conj(F.eq(x * y, Const(6)), F.gt(x, y)),
        conj(F.ge(x, Const(0)), exists(sym("k"), F.eq(x + y, var("k") * Const(2)))),
    ]

    start = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            tree_search(query)
    tree_seconds = time.perf_counter() - start

    reset_search_stats()
    reset_compile_stats()
    start = time.perf_counter()
    for _ in range(repeats):
        for query in queries:
            bounded_model_search(query, radius=4, max_seconds=None)
    elapsed = time.perf_counter() - start
    stats = search_stats()
    compilation = compile_stats()
    result = {
        **stats,
        "repeats": repeats,
        "queries": len(queries),
        "seconds": elapsed,
        "tree_seconds": tree_seconds,
        "speedup_vs_tree": tree_seconds / elapsed if elapsed > 0 else float("inf"),
        "assignments_per_second": (
            stats["assignments_evaluated"] / elapsed if elapsed > 0 else float("inf")
        ),
        "compile": compilation,
    }
    return result


def test_solver_discharges_case_study_corpus(capsys):
    corpus = _obligation_corpus()
    solver = Solver()
    reset_search_stats()
    discharged = 0
    start = time.perf_counter()
    for _name, obligation in corpus:
        if obligation.kind is ObligationKind.VALIDITY:
            result = solver.check_valid(obligation.formula)
            assert result.is_valid, f"obligation not valid: {obligation.description}"
        else:
            result = solver.check_sat(obligation.formula)
            assert result.is_sat, f"obligation not satisfiable: {obligation.description}"
        discharged += 1
    corpus_seconds = time.perf_counter() - start
    stats = solver.statistics.as_dict()
    model_search = search_stats()
    payload = {
        "experiment": "E7-solver",
        "obligations": len(corpus),
        "obligations_per_second": (
            len(corpus) / corpus_seconds if corpus_seconds > 0 else float("inf")
        ),
        "corpus_seconds": corpus_seconds,
        "solver": stats,
        "bounded_search_microbench": _bounded_search_microbench(),
    }
    # Fresh results go to an untracked file so local benchmark runs never
    # dirty the committed bench_solver.json baseline; promoting a run to
    # the new baseline is an explicit `cp` (see README "Compiled
    # evaluation" and the eval-perf-smoke CI job).
    output_path = os.path.join(os.path.dirname(__file__), "bench_solver.fresh.json")
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    with capsys.disabled():
        print()
        print("=== E7: solver substrate on the case-study obligation corpus ===")
        print(f"obligations discharged : {discharged}/{len(corpus)} in {corpus_seconds:.3f}s")
        print(f"validity queries       : {stats['validity_queries']:.0f}")
        print(f"cubes solved           : {stats['cube_count']:.0f}")
        print(f"Cooper eliminations    : {stats['cooper_eliminations']:.0f}")
        print(f"bounded fallbacks      : {stats['bounded_fallbacks']:.0f}")
        print(f"cubes prefiltered      : {stats['prefiltered_cubes']:.0f}")
        print(f"total solver time      : {stats['total_seconds']:.3f}s")
    assert discharged == len(corpus)
    assert stats["unknown_results"] == 0
    # The whole corpus is decided by the cube pipeline: the bounded
    # fallback (and hence the model search) must never fire.  If this
    # starts failing, a corpus obligation regressed out of the decidable
    # fragment — that is worth a failing benchmark, not a silent zero.
    assert model_search["searches"] == 0
    assert stats["bounded_fallbacks"] == 0
    # ... and the box prefilter must have settled a real share of the
    # corpus cubes.
    assert stats["prefiltered_cubes"] > 0


@pytest.mark.benchmark(group="E7-solver")
def test_benchmark_obligation_corpus(benchmark):
    corpus = _obligation_corpus()

    def discharge_all():
        solver = Solver()
        verdicts = []
        for _name, obligation in corpus:
            if obligation.kind is ObligationKind.VALIDITY:
                verdicts.append(solver.check_valid(obligation.formula).is_valid)
            else:
                verdicts.append(solver.check_sat(obligation.formula).is_sat)
        return verdicts

    verdicts = benchmark(discharge_all)
    assert all(verdicts)


@pytest.mark.benchmark(group="E7-solver")
def test_benchmark_cooper_quantifier_elimination(benchmark):
    sentence = forall(
        sym("x"),
        F.implies(
            Divides(6, var("x")),
            conj(Divides(2, var("x")), Divides(3, var("x"))),
        ),
    )
    result = benchmark(decide_closed, sentence)
    assert result is True


@pytest.mark.benchmark(group="E7-solver")
def test_benchmark_swish_style_case_analysis(benchmark):
    """The post-loop case analysis of the Swish proof as a single entailment."""
    n, max_o, max_r, num_o, num_r = (
        var("N"), var("max_o"), var("max_r"), var("num_o"), var("num_r"),
    )

    def characterise(num, cap):
        return conj(
            F.ge(num, Const(0)),
            F.le(num, n),
            F.implies(F.le(n, cap), F.eq(num, n)),
            F.implies(conj(F.ge(cap, Const(0)), F.le(cap, n)), F.eq(num, cap)),
            F.implies(F.le(cap, Const(0)), F.eq(num, Const(0))),
        )

    hypothesis = conj(
        F.ge(n, Const(0)),
        F.disj(
            conj(F.le(max_o, Const(10)), F.eq(max_r, max_o)),
            conj(F.gt(max_o, Const(10)), F.ge(max_r, Const(10))),
        ),
        characterise(num_o, max_o),
        characterise(num_r, max_r),
    )
    conclusion = F.disj(
        conj(F.lt(num_o, Const(10)), F.eq(num_o, num_r)),
        conj(F.ge(num_o, Const(10)), F.ge(num_r, Const(10))),
    )
    entailment = F.implies(hypothesis, conclusion)

    solver = Solver()
    result = benchmark(solver.check_valid, entailment)
    assert result.is_valid
