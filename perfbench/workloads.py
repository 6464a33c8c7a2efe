"""The benchmark's workloads: set-up, the timed phase, warm passes, checks.

Each workload runs in a fresh interpreter (see ``rep.py``).  ``setup``
imports the program and builds its inputs, ``run`` is the timed phase,
``reverify`` times warm re-verification passes of the workload's programs
against a persistent cache, and ``check`` compares the outputs with answers
that do not come from the verifier under test: the paper (every case-study
obligation is valid), the fuzz generator's family oracle, the committed
``tests/corpus/expected/`` outcomes, and the counts and digests recorded in
``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
    EXPECTED = json.load(handle)

#: The status that discharges an obligation of each kind.
PROVED = {"validity": "valid", "satisfiability": "sat"}


@dataclass
class Outcome:
    """What ``check`` found: obligations attempted, failures, the envelope."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Digest of the deterministic part of the output; reps of one seed
    #: must agree on it.
    envelope: str = ""

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(message)


def _digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:16]


def _count_unknown(outcome: Outcome, statuses: Sequence[str], where: str) -> None:
    unknown = sum(1 for status in statuses if status == "unknown")
    if unknown:
        outcome.fail(f"{where}: {unknown} UNKNOWN obligation(s)", unknown)


#: Untimed repetitions repeat warm passes for at least this long, so that
#: ``reverify_s``, the fastest pass of a run, has many samples to choose
#: from.  Traced repetitions set ``Workload.warm_seconds`` to 0 and make
#: exactly ``MIN_WARM_PASSES``, so their per-layer sums cover a fixed amount
#: of work whatever the host's speed.
WARM_SECONDS = 0.5
MIN_WARM_PASSES = 3


class Workload:
    """Base class: warm re-verification of ``self.items`` is shared."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.warm_seconds = WARM_SECONDS
        #: Times the warm passes; ``rep.py`` leaves its speed sampling out.
        self.clock = time.perf_counter
        self.warm_passes = 0
        self.warm_solver_calls = 0
        self.warm_unverified = 0
        #: Programs each warm pass is expected to leave unverified.
        self.expected_unverified = 0
        #: Context for work that is not part of the measurement (filling
        #: the cache for the warm passes); the traced run pauses its tracer.
        self.unmeasured = contextlib.nullcontext

    @property
    def programs(self) -> int:
        """Programs brought to a final verdict by the timed phase."""
        raise NotImplementedError

    def _verify(self, items, cache_dir: str):
        from repro.engine import ObligationEngine, verify_batch

        engine = ObligationEngine.for_batch(jobs=1, cache_dir=cache_dir)
        return verify_batch(items, engine=engine)

    def _warm(self, items, cache_dir: str) -> List[float]:
        times: List[float] = []
        while len(times) < MIN_WARM_PASSES or sum(times) < self.warm_seconds:
            start = self.clock()
            report = self._verify(items, cache_dir)
            times.append(self.clock() - start)
            self.warm_passes += 1
            self.warm_solver_calls += int(report.engine_stats["solver_calls"])
            self.warm_unverified += sum(1 for r in report.programs if not r.verified)
        return times

    def _check_warm(self, outcome: Outcome) -> None:
        if self.warm_solver_calls:
            outcome.fail(f"warm passes made {self.warm_solver_calls} solver calls")
        expected = self.expected_unverified * self.warm_passes
        if self.warm_unverified != expected:
            outcome.fail(f"warm passes left {self.warm_unverified} program(s) "
                         f"unverified, expected {expected}")


class VerifyStudies(Workload):
    """Cold ``verify-batch`` of the registered studies, then warm passes."""

    name = "verify-studies"
    SMOKE_STUDIES = ("lu-approximate-memory", "sum-reduction-perforation")

    def setup(self) -> None:
        from repro.engine import case_study_items

        self.items = case_study_items(self.SMOKE_STUDIES if self.scale == "smoke" else None)
        random.Random(self.seed).shuffle(self.items)
        self.cache_dir = os.path.join(self.workdir, "cache")

    def run(self) -> None:
        self.report = self._verify(self.items, self.cache_dir)

    def reverify(self) -> List[float]:
        return self._warm(self.items, self.cache_dir)

    @property
    def programs(self) -> int:
        return len(self.report.programs)

    def check(self) -> Outcome:
        from repro.engine import fingerprint

        outcome = Outcome()
        expected = EXPECTED[self.name]
        digests = {}
        for result in self.report.programs:
            lines = []
            for layer in (result.report.original, result.report.relaxed):
                for item in layer.results:
                    outcome.attempted += 1
                    status, kind = item.status.value, item.obligation.kind.value
                    if status != PROVED[kind]:  # the paper proves every one of them
                        outcome.fail(f"{result.name}: {item.obligation.rule} is {status}")
                    lines.append(f"{fingerprint(item.obligation.formula, kind)}:{status}")
            digests[result.name] = _digest(sorted(lines))
            want = expected["studies"].get(result.name)
            if digests[result.name] != want:
                outcome.fail(f"{result.name}: digest {digests[result.name]} != {want}")
        if self.scale == "full" and outcome.attempted != expected["obligations"]:
            outcome.fail(f"{outcome.attempted} obligations, expected {expected['obligations']}")
        self._check_warm(outcome)
        outcome.envelope = _digest(sorted(f"{k}:{v}" for k, v in digests.items()))
        return outcome


class ExploreLU(Workload):
    """Exhaustive ``explore`` of LU at depth 3 with two worker processes."""

    name = "explore-lu"
    STUDY = "lu-approximate-memory"

    def setup(self) -> None:
        from repro.casestudies import resolve_case_study
        from repro.explore import explore

        self.explore = explore
        self.case = resolve_case_study(self.STUDY)
        self.case.build_program()  # the study's spec refers to the built program
        self.depth = 1 if self.scale == "smoke" else 3
        self.cache_dir = os.path.join(self.workdir, "cache")

    def run(self) -> None:
        self.report = self.explore(self.STUDY, depth=self.depth, seed=self.seed, jobs=2)

    def reverify(self) -> List[float]:
        from repro.engine import program_items

        entries = []
        for outcome in self.report.survivors:
            program = outcome.candidate.program
            entries.append((outcome.name, program, self.case.acceptability_spec(program),
                            outcome.candidate.site_ids))
        random.Random(self.seed).shuffle(entries)
        items = program_items(entries, study=self.case.name)
        with self.unmeasured():
            self._verify(items, self.cache_dir)  # fill the cache
        return self._warm(items, self.cache_dir)

    @property
    def programs(self) -> int:
        return self.report.candidates

    def check(self) -> Outcome:
        from repro.fuzz.funnel import normalized_explore_payload

        outcome = Outcome()
        report = self.report
        want = EXPECTED[self.name][str(self.depth)]
        got = {
            "candidates": report.candidates,
            "verified": len(report.survivors),
            "reused": int(report.incremental.get("reused", 0)),
            "total_obligations": int(report.incremental.get("total_obligations", 0)),
        }
        for key, value in got.items():
            if value != want[key]:
                outcome.fail(f"{key} = {value}, expected {want[key]}")
        baseline = [o for o in report.outcomes if o.candidate.depth == 0]
        if len(baseline) != 1 or not baseline[0].verified:
            outcome.fail("the unrelaxed baseline is not verified")
        for candidate in report.outcomes:
            outcome.attempted += len(candidate.obligation_statuses)
            _count_unknown(outcome, candidate.obligation_statuses, candidate.name)
        self._check_warm(outcome)
        payload = normalized_explore_payload(report.as_dict())
        outcome.envelope = _digest([json.dumps(payload, sort_keys=True, default=str)])
        return outcome


class FuzzFunnel(Workload):
    """The differential fuzz funnel over the first programs of the corpus."""

    name = "fuzz-funnel"
    #: The committed corpus is generator seed 0; see README.md for why the
    #: benchmark seed does not pick the programs.
    CORPUS_SEED = 0

    def setup(self) -> None:
        from repro.engine import program_items
        from repro.fuzz.funnel import run_fuzz
        from repro.fuzz.generator import derive_spec, synthesize_corpus

        self.run_fuzz = run_fuzz
        self.count = 1 if self.scale == "smoke" else 3
        self.generated = synthesize_corpus(self.CORPUS_SEED, self.count)
        entries = [(g.name, g.program, derive_spec(g.program)) for g in self.generated]
        random.Random(self.seed).shuffle(entries)
        self.items = program_items(entries, study="fuzz")
        self.cache_dir = os.path.join(self.workdir, "cache")
        # Broken-envelope programs are expected to stay unverified.
        self.expected_unverified = sum(1 for g in self.generated if not g.expect_verified)
        self.committed = {}
        for item in self.generated:
            path = os.path.join(ROOT, "tests", "corpus", "expected", item.name + ".json")
            with open(path, encoding="utf-8") as handle:
                self.committed[item.name] = json.load(handle)

    def run(self) -> None:
        self.report = self.run_fuzz(self.CORPUS_SEED, count=self.count, depth=1)

    def reverify(self) -> List[float]:
        with self.unmeasured():
            self._verify(self.items, self.cache_dir)  # fill the cache
        return self._warm(self.items, self.cache_dir)

    @property
    def programs(self) -> int:
        return len(self.report.programs)

    def check(self) -> Outcome:
        outcome = Outcome()
        report = self.report
        oracle = {item.name: item for item in self.generated}
        for divergence in report.divergences:
            outcome.fail(f"divergence: {divergence.program}: {divergence.detail}")
        for record in report.programs:
            outcome.attempted += record.obligations
            if not record.lint_ok:
                outcome.fail(f"{record.name}: lint failed: {record.lint_errors}")
            if record.verified != oracle[record.name].expect_verified:
                outcome.fail(f"{record.name}: verified={record.verified} misses the "
                             f"{record.family} oracle")
            committed = self.committed[record.name]["obligations_digest"]
            if record.obligations_digest != committed:
                outcome.fail(f"{record.name}: digest {record.obligations_digest} != "
                             f"committed {committed}")
            _count_unknown(outcome, report.baseline[record.name].statuses, record.name)
        self._check_warm(outcome)
        outcome.envelope = _digest([json.dumps(report.as_dict(), sort_keys=True)])
        return outcome


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (VerifyStudies, ExploreLU, FuzzFunnel)
}
