"""Command-line interface: parse, run, verify and report on relaxed programs.

Usage::

    repro parse FILE                      # parse and pretty-print a program
    repro run FILE [--relaxed] [--init x=1 ...]   # execute a program
    repro casestudy list                  # the registered case-study corpus
    repro casestudy lint [NAMES...]       # well-formedness gate for case studies
    repro verify-case-study NAME          # verify a registered case study
    repro verify-batch [NAMES...]         # batch-verify through the obligation engine
    repro explore NAME [--depth N]        # search the relaxation space of a case study
    repro explain NAME --site SITE_ID     # failure forensics for a seeded relaxation
    repro explain --from-json report.json # replay recorded diagnostics offline
    repro simulate-case-study NAME        # differential simulation
    repro effort                          # artifact-statistics table (all case studies)
    repro trace summarize FILE            # aggregate a recorded --trace file
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, Optional, Sequence

from . import telemetry
from .analysis.metrics import effort_rows, format_effort_table
from .cli_report import emit_json, emit_text, report_payload
from .casestudies import all_case_studies
from .lang.parser import parse_program
from .lang.pretty import pretty_program
from .semantics.choosers import CHOOSER_POLICIES, RandomChooser, make_chooser
from .semantics.interpreter import run_original, run_relaxed
from .semantics.state import State, Terminated

_EPILOG = """\
batch verification (the obligation engine):
  repro verify-batch                     verify every registered case study
  repro verify-batch NAME [NAME ...]     verify selected case studies
  repro verify-batch --dir DIR           verify every .rlx program in DIR
                                         against its own clauses
  options:
    --jobs N        discharge obligations across N worker processes
    --cache-dir D   persist the obligation cache in D; re-runs answer
                    unchanged obligations from the cache with zero
                    solver calls
    --budget S      per-obligation wall-clock budget (seconds); the
                    cube search stops between cubes once it is spent,
                    it caps the bounded fallback search, and a spent
                    budget leaves the obligation UNKNOWN; with --explain
                    it also bounds each re-check query of the diagnostics
    --json FILE     write the structured batch report to FILE ('-' for
                    stdout)

  The engine fingerprints each obligation (alpha-renaming, conjunct
  sorting), answers repeats from the cache, and sends each remaining
  obligation to the solver as one query.

relaxation-space exploration (verified autotuning):
  repro explore lu --depth 2 --json -    enumerate candidate relaxed
                                         programs (composing transforms at
                                         discovered sites), verify each
                                         generation as one pooled batch,
                                         score the verified survivors by
                                         seeded Monte Carlo simulation, and
                                         report the Pareto frontier over
                                         (distortion, estimated savings).
  repro explore lu --depth 4 \\          guided frontier search: expand only
      --strategy beam --beam-width 6     the most promising candidates per
                                         generation (score + learned
                                         site-kind reward prior); with the
                                         incremental gate, deep searches
                                         cost roughly what depth 2 does.
  Statically rejected candidates are never executed.  Verification is
  incremental across the search: obligations already settled this session
  are reused by canonical fingerprint (the 'incremental' counters in the
  JSON report prove the reuse rate) and only the delta is discharged.
  With --cache-dir the obligation cache also persists across invocations:
  sibling candidates share most obligations, so re-exploration answers
  them with zero solver calls.  --search-budget S bounds the whole
  search's wall clock.

failure forensics (repro explain / --explain):
  repro explain lu --site knob:N:f1      apply a relaxation site, verify,
                                         and explain every undischarged
                                         obligation: the counterexample
                                         model as concrete assignments,
                                         evaluated atom-by-atom against the
                                         violated formula, anchored to an
                                         annotated source excerpt and the
                                         relaxation site that caused it.
  repro verify-batch --explain           same forensics for every failed
                                         program of a batch; with --json
                                         the report gains a 'diagnostics'
                                         section that 'repro explain
                                         --from-json report.json' replays
                                         offline (no solver runs).

observability (--trace):
  repro verify-batch --trace trace.json  record a hierarchical span trace
                                         of the whole run (collect ->
                                         fingerprint -> cache -> dispatch ->
                                         per-obligation discharge, incl.
                                         worker processes) as Chrome
                                         trace_event JSON; open it in
                                         Perfetto (https://ui.perfetto.dev)
                                         or chrome://tracing.  --trace also
                                         works on verify-case-study and
                                         explore, and adds a "telemetry"
                                         section to --json reports.
  repro trace summarize trace.json       aggregate a recorded trace: time
                                         by stage, slowest spans, cache hit
                                         rates, linearized atoms.

differential fuzzing (corpus-scale regression):
  repro fuzz --seed 0 --count 50         synthesize 50 seeded programs with
                                         planted relaxation sites, run each
                                         through lint -> verify -> explore,
                                         and assert parity across every
                                         layer: cold vs warm cache,
                                         exhaustive vs full-width beam
                                         (plus serial vs parallel verify
                                         and explore with --jobs N).  Any
                                         mismatch is shrunk to a minimal
                                         reproducer (--divergence-dir D).
  repro fuzz --replay tests/corpus       re-verify the committed corpus and
                                         byte-compare fingerprints and
                                         verdicts against the committed
                                         expectations.
"""


@contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[Optional[telemetry.TelemetrySession]]:
    """Activate a telemetry session for ``--trace`` (no-op without it).

    The session is installed for the duration of the command body and the
    trace file is written on the way out — including when the command
    raises, so a failing run still leaves its trace behind for diagnosis.
    """
    destination = getattr(args, "trace_out", None)
    if not destination:
        yield None
        return
    session = telemetry.TelemetrySession()
    telemetry.install(session)
    try:
        yield session
    finally:
        telemetry.uninstall()
        telemetry.write_chrome_trace(session, destination)


def _add_trace_argument(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace", dest="trace_out",
        help="record a telemetry trace to this file as Chrome trace_event "
        "JSON (open in Perfetto or chrome://tracing); summarise with "
        "'repro trace summarize'",
    )


def _build_batch_engine(args: argparse.Namespace):
    from .engine import ObligationEngine

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    try:
        return ObligationEngine.for_batch(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            budget_seconds=args.budget,
        )
    except ValueError as error:  # a non-positive --budget
        raise SystemExit(str(error))


def _case_study_by_name(name: str):
    from .casestudies import get_case_study

    try:
        return get_case_study(name)
    except ValueError as error:
        raise SystemExit(str(error))


def _parse_initial_state(assignments: Sequence[str]) -> State:
    scalars: Dict[str, int] = {}
    for assignment in assignments:
        if "=" not in assignment:
            raise SystemExit(f"bad --init entry {assignment!r}; expected name=value")
        name, _, value = assignment.partition("=")
        scalars[name.strip()] = int(value)
    return State.of(scalars)


def cmd_parse(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), name=args.file)
    print(pretty_program(program))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), name=args.file)
    state = _parse_initial_state(args.init or [])
    if args.relaxed:
        outcome = run_relaxed(program, state, chooser=RandomChooser(seed=args.seed))
    else:
        outcome = run_original(program, state)
    if isinstance(outcome, Terminated):
        print(f"terminated: {outcome.state}")
        for observation in outcome.observations:
            print(f"  observation {observation.label}: {observation.state}")
        return 0
    print(f"error outcome: {outcome}")
    return 1


def cmd_verify_case_study(args: argparse.Namespace) -> int:
    case_study = _case_study_by_name(args.name)
    engine = _build_batch_engine(args)
    with engine, _tracing(args) as session:
        with telemetry.span("verify-case-study", study=case_study.name):
            report = case_study.verify(engine=engine)
        engine.save()  # persist the cache
    print(report.summary())
    diagnostics = None
    if args.explain:
        from .diagnostics import diagnose_report, render_diagnostics
        from .diagnostics.explain import diagnostics_section

        found = diagnose_report(report, args.budget)
        diagnostics = diagnostics_section(found)
        if found:
            print()
            print(render_diagnostics(found))
    # Exit non-zero whenever any obligation failed or came back UNKNOWN:
    # an UNKNOWN is not a proof, so it must not look like one to scripts.
    exit_code = 0 if report.verified else 1
    if args.json_out:
        core: Dict[str, object] = {
            "name": case_study.name,
            "guarantees": report.guarantees(),
            "layers": {
                "original": report.original.as_dict(),
                "relaxed": report.relaxed.as_dict(),
            },
        }
        if diagnostics is not None:
            core["diagnostics"] = diagnostics
        emit_json(
            report_payload(
                "verify-case-study",
                core,
                verified=report.verified,
                engine=engine,
                telemetry_session=session,
            ),
            args.json_out,
        )
    return exit_code


def cmd_simulate_case_study(args: argparse.Namespace) -> int:
    case_study = _case_study_by_name(args.name)
    chooser_factory = None
    if args.chooser != "case-study":
        # Thread the CLI seed into the chooser construction itself, so a
        # simulation is reproducible from (--chooser, --seed) end to end.
        chooser_factory = lambda seed: make_chooser(args.chooser, seed=seed)
    summary = case_study.simulate(
        runs=args.runs, seed=args.seed, chooser_factory=chooser_factory
    )
    print(
        f"{case_study.name}: {summary.runs} differential runs "
        f"(chooser={args.chooser}, seed={args.seed})"
    )
    print(f"  relate violations : {summary.relate_violations}")
    print(f"  original errors   : {summary.original_errors}")
    print(f"  relaxed errors    : {summary.relaxed_errors}")
    if summary.records and summary.records[0].metrics:
        for name in sorted(summary.records[0].metrics):
            print(f"  mean {name}: {summary.mean_metric(name):.4g}")
    return 0


def cmd_verify_batch(args: argparse.Namespace) -> int:
    from .engine import case_study_items, directory_items, verify_batch

    if args.dir and args.names:
        raise SystemExit("pass case-study names or --dir, not both")
    try:
        if args.dir:
            items = directory_items(args.dir)
        else:
            items = case_study_items(args.names or None)
    except ValueError as error:
        raise SystemExit(str(error))
    if not items:
        raise SystemExit("nothing to verify")
    engine = _build_batch_engine(args)
    with engine, _tracing(args) as session:
        report = verify_batch(items, engine=engine)
    print(report.summary())
    core = report.as_dict()
    if args.explain:
        from .diagnostics import render_diagnostics
        from .diagnostics.explain import batch_diagnostics, diagnostics_section

        found = batch_diagnostics(report, args.budget)
        core["diagnostics"] = diagnostics_section(found)
        if found:
            print()
            print(render_diagnostics(found))
    if args.json_out:
        emit_json(
            report_payload(
                "verify-batch",
                core,
                verified=report.all_verified,
                engine=engine,
                telemetry_session=session,
            ),
            args.json_out,
        )
    # all_verified is false whenever any obligation failed or is UNKNOWN
    # (an undischarged obligation is never a proof), or any program erred.
    return 0 if report.all_verified else 1


def cmd_explore(args: argparse.Namespace) -> int:
    from .explore import explore

    if args.depth < 0:
        raise SystemExit("--depth must be >= 0")
    if args.samples < 1:
        raise SystemExit("--samples must be >= 1")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.beam_width < 1:
        raise SystemExit("--beam-width must be >= 1")
    if args.search_budget is not None and args.search_budget <= 0:
        raise SystemExit("--search-budget must be > 0")
    try:
        with _tracing(args) as session:
            report = explore(
                args.name,
                depth=args.depth,
                samples=args.samples,
                seed=args.seed,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                budget_seconds=args.budget,
                max_candidates=args.max_candidates,
                strategy=args.strategy,
                beam_width=args.beam_width,
                search_budget_seconds=args.search_budget,
            )
    except ValueError as error:
        raise SystemExit(str(error))
    print(report.summary())
    if args.json_out:
        emit_json(
            report_payload(
                "explore",
                report.as_dict(),
                verified=bool(report.survivors),
                telemetry_session=session,
            ),
            args.json_out,
        )
    if args.csv_out:
        emit_text(report.to_csv(), args.csv_out)
    return 0 if report.survivors else 1


def cmd_explain(args: argparse.Namespace) -> int:
    from .diagnostics.explain import explain_case_study, explain_from_payload

    if args.from_json:
        import json

        if args.name or args.site:
            raise SystemExit("--from-json replays a recorded report; "
                             "do not also pass a case study or --site")
        try:
            if args.from_json == "-":
                payload = json.load(sys.stdin)
            else:
                with open(args.from_json, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot read report envelope: {error}")
        try:
            report = explain_from_payload(payload)
        except ValueError as error:
            raise SystemExit(str(error))
        print(report.render())
        if args.json_out:
            emit_json(
                report_payload("explain", report.as_dict(), verified=report.verified),
                args.json_out,
            )
        return 0

    if not args.name:
        raise SystemExit("pass a case-study name (with --site) or --from-json FILE")
    engine = None
    if args.jobs != 1 or args.cache_dir or args.budget is not None:
        engine = _build_batch_engine(args)
    with engine or nullcontext(), _tracing(args) as session:
        with telemetry.span("explain", study=args.name):
            try:
                report = explain_case_study(
                    args.name, args.site or [], engine=engine
                )
            except ValueError as error:
                raise SystemExit(str(error))
        if engine is not None:
            engine.save()
    print(report.render())
    if args.json_out:
        emit_json(
            report_payload(
                "explain",
                report.as_dict(),
                verified=report.verified,
                engine=engine,
                telemetry_session=session,
            ),
            args.json_out,
        )
    # 'explain' is a forensic tool: producing the explanation IS success,
    # whether or not the relaxed program verified.
    return 0


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .telemetry import TraceFormatError, summarize_trace

    if args.top < 1:
        raise SystemExit("--top must be >= 1")
    try:
        summary = summarize_trace(args.file, top=args.top)
    except OSError as error:
        raise SystemExit(f"cannot read trace file: {error}")
    except TraceFormatError as error:
        raise SystemExit(f"not a recognised trace file: {error}")
    if args.json_out:
        emit_json(summary.as_dict(), args.json_out)
    else:
        print(summary.render())
    return 0


def cmd_effort(args: argparse.Namespace) -> int:
    rows = []
    for case_study in all_case_studies():
        report = case_study.verify()
        rows.extend(effort_rows(case_study.name, report, case_study.paper_proof_lines))
    print(format_effort_table(rows))
    return 0


def cmd_casestudy_list(args: argparse.Namespace) -> int:
    rows = [(case.name, case.paper_section) for case in all_case_studies()]
    width = max(len(row[0]) for row in rows) if rows else 4
    print(f"{'name':<{width}}  paper section")
    print("-" * (width + 16))
    for name, section in rows:
        print(f"{name:<{width}}  {section}")
    if args.json_out:
        payload = report_payload(
            "casestudy-list",
            {
                "studies": [
                    {"name": name, "paper_section": section}
                    for name, section in rows
                ]
            },
            verified=bool(rows),
        )
        emit_json(payload, args.json_out)
    return 0


def cmd_casestudy_lint(args: argparse.Namespace) -> int:
    from .casestudies import lint_registry

    try:
        reports = lint_registry(args.names or None)
    except ValueError as error:
        raise SystemExit(str(error))
    for report in reports:
        print(report.summary())
    all_ok = all(report.ok for report in reports)
    if args.json_out:
        payload = report_payload(
            "casestudy-lint",
            {"studies": [report.as_dict() for report in reports]},
            verified=all_ok,
        )
        emit_json(payload, args.json_out)
    # A lint failure must fail scripts/CI, exactly like a failed proof.
    return 0 if all_ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import replay_corpus, run_fuzz, write_corpus

    if args.replay:
        report = replay_corpus(args.replay)
        print(report.summary())
        if args.json_out:
            emit_json(
                report_payload("fuzz", report.as_dict(), verified=report.ok),
                args.json_out,
            )
        return 0 if report.ok else 1

    if args.count < 1:
        raise SystemExit("--count must be >= 1")
    if args.depth < 0:
        raise SystemExit("--depth must be >= 0")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    with _tracing(args) as session:
        report = run_fuzz(
            seed=args.seed,
            count=args.count,
            depth=args.depth,
            jobs=args.jobs,
            samples=args.samples,
            divergence_dir=args.divergence_dir,
        )
    print(report.summary())
    if args.write_corpus:
        if report.ok:
            names = write_corpus(args.write_corpus, report)
            print(f"corpus: wrote {len(names)} programs to {args.write_corpus}")
        else:
            print("corpus: NOT written (run diverged)")
    if args.json_out:
        emit_json(
            report_payload(
                "fuzz",
                report.as_dict(),
                verified=report.ok,
                telemetry_session=session,
            ),
            args.json_out,
        )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verification framework for relaxed nondeterministic approximate programs",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    parse_cmd = subparsers.add_parser("parse", help="parse and pretty-print a program")
    parse_cmd.add_argument("file")
    parse_cmd.set_defaults(func=cmd_parse)

    run_cmd = subparsers.add_parser("run", help="execute a program")
    run_cmd.add_argument("file")
    run_cmd.add_argument("--relaxed", action="store_true", help="use the relaxed semantics")
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--init", action="append", help="initial value, e.g. --init x=3")
    run_cmd.set_defaults(func=cmd_run)

    verify_cmd = subparsers.add_parser("verify-case-study", help="verify a registered case study")
    verify_cmd.add_argument("name")
    verify_cmd.add_argument(
        "--jobs", type=int, default=1, help="parallel discharge worker processes"
    )
    verify_cmd.add_argument(
        "--cache-dir", help="directory for the persistent obligation cache"
    )
    verify_cmd.add_argument(
        "--budget", type=float, default=None, help="per-obligation budget in seconds"
    )
    verify_cmd.add_argument(
        "--json", dest="json_out",
        help="write the JSON report (incl. cache hit/miss counters) to this "
        "file ('-' = stdout)",
    )
    verify_cmd.add_argument(
        "--explain", action="store_true",
        help="render a forensic report for every undischarged obligation "
        "(source span, counterexample model, atom-by-atom evaluation) and "
        "add a 'diagnostics' section to --json output",
    )
    _add_trace_argument(verify_cmd)
    verify_cmd.set_defaults(func=cmd_verify_case_study)

    batch_cmd = subparsers.add_parser(
        "verify-batch",
        help="batch-verify case studies or a program directory via the obligation engine",
    )
    batch_cmd.add_argument(
        "names", nargs="*", help="case-study names (default: every registered case study)"
    )
    batch_cmd.add_argument(
        "--dir",
        help=(
            "verify every .rlx program in this directory against the spec its "
            "own header clauses and diverge annotations state"
        ),
    )
    batch_cmd.add_argument(
        "--jobs", type=int, default=1, help="parallel discharge worker processes"
    )
    batch_cmd.add_argument(
        "--cache-dir", help="directory for the persistent obligation cache"
    )
    batch_cmd.add_argument(
        "--budget",
        type=float,
        default=None,
        help="per-obligation budget in seconds (checked between DNF cubes and "
        "caps the bounded fallback search; normalisation and Cooper are not "
        "preempted); with --explain it also bounds each re-check query",
    )
    batch_cmd.add_argument(
        "--json", dest="json_out", help="write the JSON report to this file ('-' = stdout)"
    )
    batch_cmd.add_argument(
        "--explain", action="store_true",
        help="render a forensic report for every undischarged obligation "
        "across the batch and add a 'diagnostics' section to --json output",
    )
    _add_trace_argument(batch_cmd)
    batch_cmd.set_defaults(func=cmd_verify_batch)

    simulate_cmd = subparsers.add_parser(
        "simulate-case-study", help="differentially simulate a case study"
    )
    simulate_cmd.add_argument("name")
    simulate_cmd.add_argument("--runs", type=int, default=25)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument(
        "--chooser",
        choices=("case-study",) + CHOOSER_POLICIES,
        default="case-study",
        help="nondeterminism policy for the relaxed runs: the case study's "
        "own substrate model (default) or a named policy constructed with "
        "the --seed",
    )
    simulate_cmd.set_defaults(func=cmd_simulate_case_study)

    explore_cmd = subparsers.add_parser(
        "explore",
        help="enumerate, verify and score the relaxation space of a case study",
    )
    explore_cmd.add_argument("name", help="case-study name (prefixes accepted, e.g. 'lu')")
    explore_cmd.add_argument(
        "--depth", type=int, default=1, help="maximum number of composed transforms"
    )
    explore_cmd.add_argument(
        "--samples", type=int, default=25, help="Monte Carlo samples per candidate"
    )
    explore_cmd.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for discharge and scoring (one pool per search)",
    )
    explore_cmd.add_argument("--seed", type=int, default=0, help="simulation seed")
    explore_cmd.add_argument(
        "--cache-dir", help="persistent obligation cache shared across search rounds"
    )
    explore_cmd.add_argument(
        "--budget", type=float, default=None, help="per-obligation budget in seconds"
    )
    explore_cmd.add_argument(
        "--max-candidates", type=int, default=48, help="enumeration cap"
    )
    explore_cmd.add_argument(
        "--strategy",
        choices=("exhaustive", "beam"),
        default="exhaustive",
        help="frontier search strategy: expand every candidate per "
        "generation (exhaustive) or only the most promising (beam)",
    )
    explore_cmd.add_argument(
        "--beam-width",
        type=int,
        default=8,
        help="candidates expanded per generation under --strategy beam",
    )
    explore_cmd.add_argument(
        "--search-budget",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the whole search "
        "(the report is marked truncated when it bites)",
    )
    explore_cmd.add_argument(
        "--json", dest="json_out", help="write the JSON report to this file ('-' = stdout)"
    )
    explore_cmd.add_argument(
        "--csv", dest="csv_out", help="write the per-candidate CSV to this file ('-' = stdout)"
    )
    _add_trace_argument(explore_cmd)
    explore_cmd.set_defaults(func=cmd_explore)

    explain_cmd = subparsers.add_parser(
        "explain",
        help="failure forensics: apply relaxation sites to a case study, "
        "verify, and explain every undischarged obligation",
    )
    explain_cmd.add_argument(
        "name", nargs="?", default=None,
        help="case-study name (omit when replaying with --from-json)",
    )
    explain_cmd.add_argument(
        "--site", action="append", default=None, metavar="SITE_ID",
        help="relaxation site to apply before verifying (repeatable, "
        "applied in order); site ids as discovered by 'repro explore', "
        "e.g. 'knob:N:f1' or 'perforate:i@L0:s2'",
    )
    explain_cmd.add_argument(
        "--from-json", dest="from_json", metavar="FILE",
        help="replay the 'diagnostics' section of a recorded --json report "
        "envelope ('-' = stdin) instead of re-verifying",
    )
    explain_cmd.add_argument(
        "--jobs", type=int, default=1, help="parallel discharge worker processes"
    )
    explain_cmd.add_argument(
        "--cache-dir",
        help="persistent obligation cache; answered obligations (and their "
        "counterexample models) replay from disk with zero solver calls",
    )
    explain_cmd.add_argument(
        "--budget", type=float, default=None, help="per-obligation budget in seconds"
    )
    explain_cmd.add_argument(
        "--json", dest="json_out",
        help="write the forensic report as JSON to this file ('-' = stdout)",
    )
    _add_trace_argument(explain_cmd)
    explain_cmd.set_defaults(func=cmd_explain)

    trace_cmd = subparsers.add_parser(
        "trace", help="inspect telemetry traces recorded with --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize_cmd = trace_sub.add_parser(
        "summarize",
        help="aggregate a trace: time by stage, slowest spans, cache hit "
        "rates, linearized atoms",
    )
    summarize_cmd.add_argument("file", help="a --trace output file (Chrome trace JSON)")
    summarize_cmd.add_argument(
        "--top", type=int, default=10, help="how many slowest spans to list"
    )
    summarize_cmd.add_argument(
        "--json", dest="json_out",
        help="write the summary as JSON to this file ('-' = stdout)",
    )
    summarize_cmd.set_defaults(func=cmd_trace_summarize)

    effort_cmd = subparsers.add_parser("effort", help="artifact-statistics table")
    effort_cmd.set_defaults(func=cmd_effort)

    casestudy_cmd = subparsers.add_parser(
        "casestudy", help="inspect and lint the case-study registry"
    )
    casestudy_sub = casestudy_cmd.add_subparsers(dest="casestudy_command", required=True)

    list_cmd = casestudy_sub.add_parser("list", help="list the registered case studies")
    list_cmd.add_argument(
        "--json", dest="json_out", help="write the JSON report to this file ('-' = stdout)"
    )
    list_cmd.set_defaults(func=cmd_casestudy_list)

    lint_cmd = casestudy_sub.add_parser(
        "lint",
        help="check studies: program parses, sites resolve, obligations collect",
    )
    lint_cmd.add_argument(
        "names", nargs="*", help="case-study names (default: the full registry)"
    )
    lint_cmd.add_argument(
        "--json", dest="json_out", help="write the JSON report to this file ('-' = stdout)"
    )
    lint_cmd.set_defaults(func=cmd_casestudy_lint)

    fuzz_cmd = subparsers.add_parser(
        "fuzz",
        help="synthesize a program corpus and differentially test the "
        "lint -> verify -> explore funnel",
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0, help="generator seed")
    fuzz_cmd.add_argument(
        "--count", type=int, default=20, help="number of programs to synthesize"
    )
    fuzz_cmd.add_argument(
        "--depth", type=int, default=1, help="explore search depth per program"
    )
    fuzz_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="with N > 1, adds serial-vs-parallel discharge and explore "
        "--jobs parity legs",
    )
    fuzz_cmd.add_argument(
        "--samples",
        type=int,
        default=4,
        help="Monte Carlo samples per explore candidate",
    )
    fuzz_cmd.add_argument(
        "--divergence-dir",
        help="write shrunken reproducer fixtures (program.rlx + "
        "divergence.json) under this directory",
    )
    fuzz_cmd.add_argument(
        "--write-corpus",
        metavar="DIR",
        help="on a clean run, persist sources + fingerprints + verdicts as "
        "a committed corpus under DIR",
    )
    fuzz_cmd.add_argument(
        "--replay",
        metavar="DIR",
        help="instead of generating, re-verify a committed corpus and "
        "byte-compare outcomes",
    )
    fuzz_cmd.add_argument(
        "--json", dest="json_out", help="write the JSON report to this file ('-' = stdout)"
    )
    _add_trace_argument(fuzz_cmd)
    fuzz_cmd.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
