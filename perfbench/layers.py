"""The layers the traced run times, and the per-layer metrics it reports.

Each :class:`~tracer.Target` names a public function or method of one
layer.  Times are self times; counts either come from the wrappers or are
read from the counters the program itself keeps on the objects the hooks
saw (engine, solver and cache statistics, the incremental verdict store).
Counters of discharges done in ``--jobs 2`` worker processes are exact,
because the engine ships them home; wrapper times are not, because the
wrappers only run in the benchmark's own process.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracer import Target, Tracer


def _remember_engine(tracer: Tracer, args: tuple, result) -> None:
    engine = args[0]
    tracer.engines[id(engine)] = engine


def _count_obligations(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["hoare.obligations"] += len(result.original.obligations) + len(
        result.relaxed.obligations
    )


def _count_pool(tracer: Tracer, args: tuple, pool) -> None:
    tracer.counts["engine.pools"] += 1


def _count_explore(tracer: Tracer, args: tuple, report) -> None:
    tracer.counts["explore.candidates"] += report.candidates
    tracer.counts["explore.verified"] += len(report.survivors)


_SOLVER = "repro.solver.interface"

TARGETS: Tuple[Target, ...] = (
    *(
        Target("repro.lang.parser", name, "lang.parse")
        for name in ("parse_program", "parse_statement", "parse_bool",
                     "parse_rel_bool", "parse_expr")
    ),
    Target("repro.hoare.verifier", "AcceptabilityVerifier.collect", "hoare.collect",
           on_result=_count_obligations),
    Target("repro.hoare.unary", "collect_unary", "hoare.unary"),
    Target("repro.hoare.relational", "RelationalProver.collect", "hoare.relational"),
    Target("repro.engine.fingerprint", "fingerprint", "engine.fingerprint"),
    Target("repro.engine.incremental", "VerdictStore.get", "engine.gate"),
    Target("repro.engine.incremental", "VerdictStore.record", "engine.gate"),
    *(
        Target("repro.engine.cache", f"ObligationCache.{name}", "engine.cache")
        for name in ("get", "put", "load", "save")
    ),
    Target("repro.engine.core", "ObligationEngine.discharge_all", "engine.discharge",
           on_result=_remember_engine),
    Target("repro.engine.scheduler", "DischargeScheduler.run", "engine.discharge"),
    # Every worker pool the scheduler opens is made through this name.
    Target("repro.engine.scheduler", "ProcessPoolExecutor", None,
           on_result=_count_pool, everywhere=False),
    Target(_SOLVER, "Solver.check_sat", "solver.facade"),
    Target(_SOLVER, "Solver.check_valid", "solver.facade"),
    *(
        Target(_SOLVER, name, "solver.normalize", everywhere=False)
        for name in ("eliminate_compound_terms", "to_nnf",
                     "strip_positive_existentials", "has_universal")
    ),
    Target(_SOLVER, "ackermannize", "solver.ackermann", everywhere=False),
    Target(_SOLVER, "eliminate_quantifiers", "solver.cooper", everywhere=False),
    Target(_SOLVER, "to_dnf", "solver.dnf", everywhere=False),
    Target(_SOLVER, "prefilter_unsat_cubes", "solver.prefilter", everywhere=False),
    Target(_SOLVER, "bounded_model_search", "solver.bounded", everywhere=False),
    Target("repro.solver.lia", "CubeSolver.solve", "solver.cube"),
    Target("repro.diagnostics.report", "diagnose_report", "diagnostics.diagnose"),
    Target("repro.explore.candidates", "CandidateSpace.__init__", "explore.enumerate"),
    Target("repro.explore.candidates", "CandidateSpace.expand", "explore.enumerate"),
    Target("repro.explore.scoring", "score_candidate", "explore.score"),
    Target("repro.explore.explorer", "explore", None, on_result=_count_explore),
    Target("repro.semantics.interpreter", "Interpreter.run", "semantics.interpret"),
    Target("repro.fuzz.generator", "synthesize_corpus", "fuzz.synthesize"),
    Target("repro.casestudies.spec", "lint_case_study", "casestudies.lint"),
)

#: Every per-layer metric the traced run reports, with its unit.
METRICS: Dict[str, str] = {
    "lang.parse_s": "s",
    "lang.parse_calls": "count",
    "hoare.collect_s": "s",
    "hoare.unary_s": "s",
    "hoare.relational_s": "s",
    "hoare.collect_calls": "count",
    "hoare.obligations": "count",
    "engine.fingerprint_s": "s",
    "engine.fingerprint_calls": "count",
    "engine.gate_s": "s",
    "engine.reuse_ratio": "ratio",
    "engine.cache_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.discharge_s": "s",
    "engine.pools": "count",
    "engine.solver_calls": "count",
    "engine.dedup_hits": "count",
    "solver.queries": "count",
    "solver.facade_s": "s",
    "solver.normalize_s": "s",
    "solver.ackermann_s": "s",
    "solver.cooper_s": "s",
    "solver.dnf_s": "s",
    "solver.prefilter_s": "s",
    "solver.cube_s": "s",
    "solver.bounded_s": "s",
    "solver.cubes": "count",
    "solver.prefilter_ratio": "ratio",
    "solver.unknown": "count",
    "solver.under_engine_s": "s",
    "solver.under_hoare_s": "s",
    "solver.under_diagnostics_s": "s",
    "diagnostics.diagnose_s": "s",
    "diagnostics.reports": "count",
    "diagnostics.solver_queries": "count",
    "explore.enumerate_s": "s",
    "explore.score_s": "s",
    "semantics.interpret_s": "s",
    "explore.candidates": "count",
    "explore.verified_ratio": "ratio",
    "fuzz.synthesize_s": "s",
    "casestudies.lint_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer values of one traced rep (all but ``trace_overhead_s``,
    which compares reps)."""
    engine: Dict[str, float] = {}
    solver: Dict[str, float] = {}
    for instance in tracer.engines.values():
        for key, value in instance.statistics.as_dict().items():
            engine[key] = engine.get(key, 0.0) + value
        for key, value in instance.solver_statistics.as_dict().items():
            solver[key] = solver.get(key, 0.0) + value
    hits, misses = engine.get("cache_hits", 0.0), engine.get("cache_misses", 0.0)
    reused = engine.get("incremental_reused", 0.0)
    delta = engine.get("delta_obligations", 0.0)
    calls, counts, self_s = tracer.calls, tracer.counts, tracer.self_s

    values = {f"{key}_s": self_s.get(key, 0.0) for key in (
        "lang.parse", "hoare.collect", "hoare.unary", "hoare.relational",
        "engine.fingerprint", "engine.gate", "engine.cache", "engine.discharge",
        "solver.facade", "solver.normalize", "solver.ackermann", "solver.cooper",
        "solver.dnf", "solver.prefilter", "solver.cube", "solver.bounded",
        "diagnostics.diagnose", "explore.enumerate", "explore.score",
        "semantics.interpret", "fuzz.synthesize", "casestudies.lint",
    )}
    values.update({
        "lang.parse_calls": sum(
            calls[name] for name in ("parse_program", "parse_statement", "parse_bool",
                                     "parse_rel_bool", "parse_expr")
        ),
        "hoare.collect_calls": calls["AcceptabilityVerifier.collect"],
        "hoare.obligations": counts["hoare.obligations"],
        "engine.fingerprint_calls": calls["fingerprint"],
        "engine.reuse_ratio": _ratio(reused, reused + delta),
        "engine.cache_hit_ratio": _ratio(hits, hits + misses),
        "engine.pools": counts["engine.pools"],
        "engine.solver_calls": engine.get("solver_calls", 0.0),
        "engine.dedup_hits": engine.get("dedup_hits", 0.0),
        "solver.queries": sum(tracer.under_n.values()),
        "solver.cubes": solver.get("cube_count", 0.0),
        "solver.prefilter_ratio": _ratio(
            solver.get("prefiltered_cubes", 0.0), solver.get("cube_count", 0.0)
        ),
        "solver.unknown": solver.get("unknown_results", 0.0),
        "solver.under_engine_s": tracer.under_s.get("engine", 0.0),
        "solver.under_hoare_s": tracer.under_s.get("hoare", 0.0),
        "solver.under_diagnostics_s": tracer.under_s.get("diagnostics", 0.0),
        "diagnostics.reports": calls["diagnose_report"],
        "diagnostics.solver_queries": tracer.under_n.get("diagnostics", 0),
        "explore.candidates": counts["explore.candidates"],
        "explore.verified_ratio": _ratio(
            counts["explore.verified"], counts["explore.candidates"]
        ),
        "unattributed_s": traced_wall_s - tracer.paused_s - tracer.total_self_s(),
    })
    return {name: float(value) for name, value in values.items()}
