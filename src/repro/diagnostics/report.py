"""Build and render forensic reports for failed proof obligations.

A failed VALIDITY obligation comes with a counterexample model (an integer
assignment to the formula's free symbols) found by the cube solver;
a failed SATISFIABILITY obligation comes with none (the relaxation
predicate's denotation is empty).  Either way the obligation's provenance
(:class:`~repro.hoare.obligations.ObligationProvenance`) anchors the verdict
to a statement span in the program source.

Diagnostics are built in two composed stages.  :func:`attribute_result`
reads provenance and the model only (what failed, where, under which
model); :func:`diagnose_result` adds the source excerpt, the atom table
and the mechanical re-check of the model by
:func:`~repro.logic.evaluate.evaluate`.

Everything in a :class:`FailureDiagnostic` is plain data with a lossless
``as_dict``/``from_dict`` round-trip, so a diagnostics section embedded in a
``--json`` envelope can be replayed by ``repro explain --from-json`` without
re-running collection or the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hoare.obligations import ObligationKind, ObligationResult
from ..lang.ast import Span
from ..logic.evaluate import EvaluationError, Valuation, evaluate
from ..logic.formula import (
    Atom,
    Const,
    Divides,
    Exists,
    Forall,
    Formula,
    Ite,
    Rel,
    Select,
    Store,
    Symbol,
    formula_arrays,
    node_children,
    quantifier_depth,
    rebuild,
)
from ..solver.lia import Status

#: Quantifier evaluation domain half-width.  Covers both the bounded model
#: search radius (4) and the solver's quantifier witness radius (6), so a
#: model found by either re-evaluates the same way here.
DOMAIN_RADIUS = 8

#: Enumeration ceiling for quantifier evaluation: a formula whose nested
#: quantifier depth would force more than this many body evaluations is not
#: enumerated (the check falls back to grounding + a solver query instead).
ENUMERATION_BUDGET = 200_000


# ---------------------------------------------------------------------------
# Mechanical re-evaluation
# ---------------------------------------------------------------------------


def _model_valuation(
    model: Dict[Symbol, int], arrays: Sequence[Symbol] = ()
) -> Valuation:
    """The model as a valuation, optionally with all-zero array contents.

    Counterexample models assign integers to scalar symbols only (array
    reads are Ackermannised away inside the solver), so a formula reading an
    array cannot be evaluated from the model alone.  Extending the model
    with all-zero arrays is still sound for *confirming* a VALIDITY failure:
    false under any one concrete extension witnesses invalidity.
    """
    valuation = Valuation(scalars=dict(model))
    if arrays:
        domain = _model_domain(model)
        valuation.arrays = {
            array: {index: 0 for index in domain} for array in arrays
        }
    return valuation


def _model_domain(model: Dict[Symbol, int]) -> List[int]:
    """A finite quantifier domain wide enough to cover the model's values."""
    values = list(model.values()) or [0]
    low = min(min(values) - DOMAIN_RADIUS, -DOMAIN_RADIUS)
    high = max(max(values) + DOMAIN_RADIUS, DOMAIN_RADIUS)
    return list(range(low, high + 1))


def _enumerable(formula: Formula, domain: List[int]) -> bool:
    depth = quantifier_depth(formula)
    try:
        return len(domain) ** depth <= ENUMERATION_BUDGET
    except OverflowError:  # pragma: no cover - astronomically deep
        return False


def reevaluate(formula: Formula, model: Dict[Symbol, int]) -> Optional[bool]:
    """Evaluate ``formula`` under the counterexample ``model``.

    Returns ``None`` when the formula is not fully evaluable (a symbol the
    model does not assign, an array select, division by zero in a pruned
    branch, or quantifier nesting beyond :data:`ENUMERATION_BUDGET`) — the
    diagnostic then reports the atoms that *did* evaluate.
    """
    domain = _model_domain(model)
    if not _enumerable(formula, domain):
        return None
    try:
        return evaluate(formula, _model_valuation(model), domain)
    except EvaluationError:
        return None


def _zero_selects(node):
    """Interpret every array as all-zeros, syntactically.

    ``select(A, i)`` becomes ``0``; ``select(store(B, i, v), j)`` becomes
    ``ite(j == i, v, select(B, j))`` recursively.  The result contains no
    array reads, so the decision procedures apply without Ackermannisation
    (which cannot handle quantified indexes).
    """
    if isinstance(node, Select):
        index = _zero_selects(node.index)
        array = node.array
        if isinstance(array, Store):
            # Unfold one store layer: read-at-written-index, else recurse.
            return Ite(
                Atom(Rel.EQ, index, _zero_selects(array.index)),
                _zero_selects(array.value),
                _zero_selects(Select(array.array, node.index)),
            )
        return Const(0)
    return rebuild(node, tuple(_zero_selects(child) for child in node_children(node)))


def _solver_check(
    formula: Formula, model: Dict[Symbol, int], budget_seconds: Optional[float] = None
) -> Tuple[Optional[bool], List[str]]:
    """Decide the grounded formula with the decision procedures.

    Substitutes the model's scalar assignment into the formula and asks the
    solver whether the resulting (scalar-closed) formula is satisfiable.
    UNSAT means the formula is false under the model for *every* choice of
    array contents — a confirmation stronger than pointwise evaluation.
    When that query is inconclusive (e.g. quantified array indexes defeat
    the Ackermann reduction), the arrays are interpreted as all-zeros
    syntactically and the query retried; returns ``(value, zero_arrays)``.
    Each query runs under ``budget_seconds`` (unbounded when ``None``).
    """
    from ..logic.subst import substitute
    from ..solver.interface import Solver

    grounded = substitute(
        formula, {symbol: Const(value) for symbol, value in model.items()}
    )
    try:
        result = Solver(budget_seconds).check_sat(grounded)
    except Exception:  # pragma: no cover - defensive: diagnosis must not raise
        return None, []
    if result.status is Status.UNSAT:
        return False, []
    arrays = sorted(formula_arrays(grounded), key=str)
    if result.status is Status.SAT and not arrays:
        return True, []
    if not arrays:
        return None, []
    try:
        zeroed = _zero_selects(grounded)
        result = Solver(budget_seconds).check_sat(zeroed)
    except Exception:  # pragma: no cover - defensive
        return None, []
    names = [str(array) for array in arrays]
    if result.status is Status.UNSAT:
        return False, names
    if result.status is Status.SAT:
        return True, names
    return None, []


def _reevaluate_with_arrays(
    formula: Formula, model: Dict[Symbol, int], budget_seconds: Optional[float] = None
) -> Tuple[Optional[bool], List[str], str]:
    """The full mechanical-confirmation cascade for one counterexample.

    Returns ``(value, zero_arrays, method)``: direct enumeration first, then
    enumeration with zero-filled arrays (``zero_arrays`` names them), then
    grounding + solver query for formulas too deeply quantified to
    enumerate.  ``method`` records which check concluded (``""`` if none).
    """
    value = reevaluate(formula, model)
    if value is not None:
        return value, [], "evaluation"
    domain = _model_domain(model)
    arrays = sorted(formula_arrays(formula), key=str)
    if arrays and _enumerable(formula, domain):
        try:
            value = evaluate(formula, _model_valuation(model, arrays), domain)
            return value, [str(array) for array in arrays], "evaluation"
        except EvaluationError:
            pass
    value, zero_arrays = _solver_check(formula, model, budget_seconds)
    if value is not None:
        return value, zero_arrays, "solver-substitution"
    return None, [], ""


def _atoms_of(formula: Formula, under_quantifier: bool = False):
    """Yield ``(atomic formula, under_quantifier)`` leaves, in syntax order."""
    if isinstance(formula, (Atom, Divides)):
        yield formula, under_quantifier
        return
    under_quantifier = under_quantifier or isinstance(formula, (Exists, Forall))
    for child in node_children(formula):
        yield from _atoms_of(child, under_quantifier)


@dataclass(frozen=True)
class AtomEvaluation:
    """One atomic subformula's value under the counterexample."""

    text: str
    value: Optional[bool]  # None: not evaluable under the model
    note: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"text": self.text, "value": self.value, "note": self.note}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AtomEvaluation":
        return cls(
            text=str(payload.get("text", "")),
            value=payload.get("value"),  # type: ignore[arg-type]
            note=str(payload.get("note", "")),
        )


def evaluate_atoms(
    formula: Formula, model: Dict[Symbol, int]
) -> List[AtomEvaluation]:
    """Evaluate every atomic subformula of ``formula`` under ``model``.

    Atoms under a quantifier depend on the bound symbol and are reported
    unevaluated with a note; duplicated atoms are reported once.
    """
    valuation = _model_valuation(model)
    zero_arrays = _model_valuation(model, sorted(formula_arrays(formula), key=str))
    domain = _model_domain(model)
    evaluations: List[AtomEvaluation] = []
    seen = set()
    for atom, under_quantifier in _atoms_of(formula):
        text = str(atom)
        if text in seen:
            continue
        seen.add(text)
        if under_quantifier:
            evaluations.append(
                AtomEvaluation(text, None, "depends on a quantified symbol")
            )
            continue
        try:
            value = evaluate(atom, valuation, domain)
            evaluations.append(AtomEvaluation(text, bool(value)))
        except EvaluationError as error:
            try:
                value = evaluate(atom, zero_arrays, domain)
                evaluations.append(
                    AtomEvaluation(text, bool(value), "array cells assumed 0")
                )
            except EvaluationError:
                evaluations.append(AtomEvaluation(text, None, str(error)))
    return evaluations


# ---------------------------------------------------------------------------
# Source excerpts
# ---------------------------------------------------------------------------


def source_excerpt(source: str, span: Span, context: int = 2) -> str:
    """An annotated excerpt: numbered lines, markers on the spanned region."""
    lines = source.splitlines()
    first = max(1, span.line - context)
    last = min(len(lines), span.end_line + context)
    width = len(str(last))
    rendered: List[str] = []
    for number in range(first, last + 1):
        text = lines[number - 1]
        marker = ">" if span.line <= number <= span.end_line else " "
        rendered.append(f"{marker} {number:>{width}} | {text}")
        if span.line <= number <= span.end_line:
            start_col = span.column if number == span.line else 1
            end_col = span.end_column if number == span.end_line else len(text) + 1
            carets = " " * (start_col - 1) + "^" * max(1, end_col - start_col)
            rendered.append(f"  {' ' * width} | {carets}")
    return "\n".join(rendered)


# ---------------------------------------------------------------------------
# The diagnostic record
# ---------------------------------------------------------------------------


@dataclass
class FailureDiagnostic:
    """Everything needed to explain one undischarged obligation."""

    program: str = ""
    study: str = ""
    rule: str = ""
    system: str = ""
    kind: str = ""
    status: str = ""
    reason: str = ""
    description: str = ""
    statement: str = ""
    location: str = "unknown location"
    span: Optional[Dict[str, int]] = None
    sites: List[str] = field(default_factory=list)
    #: Counterexample assignment keyed by rendered symbol name (``x<o>``).
    model: Dict[str, int] = field(default_factory=dict)
    atoms: List[AtomEvaluation] = field(default_factory=list)
    formula_text: str = ""
    #: The formula's value re-evaluated under the model — ``False`` confirms
    #: the counterexample mechanically; ``None`` when not fully evaluable.
    formula_value: Optional[bool] = None
    #: Array symbols whose cells were assumed 0 during re-evaluation (the
    #: model assigns scalars only; any concrete extension that falsifies a
    #: VALIDITY obligation is a genuine witness).
    zero_arrays: List[str] = field(default_factory=list)
    #: How ``formula_value`` was established: ``"evaluation"`` (bounded
    #: enumeration), ``"solver-substitution"`` (model grounded into the
    #: formula, decided by the solver), or ``""`` (not established).
    check_method: str = ""
    excerpt: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "study": self.study,
            "rule": self.rule,
            "system": self.system,
            "kind": self.kind,
            "status": self.status,
            "reason": self.reason,
            "description": self.description,
            "statement": self.statement,
            "location": self.location,
            "span": dict(self.span) if self.span is not None else None,
            "sites": list(self.sites),
            "model": dict(self.model),
            "atoms": [atom.as_dict() for atom in self.atoms],
            "formula_text": self.formula_text,
            "formula_value": self.formula_value,
            "zero_arrays": list(self.zero_arrays),
            "check_method": self.check_method,
            "excerpt": self.excerpt,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FailureDiagnostic":
        span = payload.get("span")
        return cls(
            program=str(payload.get("program", "")),
            study=str(payload.get("study", "")),
            rule=str(payload.get("rule", "")),
            system=str(payload.get("system", "")),
            kind=str(payload.get("kind", "")),
            status=str(payload.get("status", "")),
            reason=str(payload.get("reason", "")),
            description=str(payload.get("description", "")),
            statement=str(payload.get("statement", "")),
            location=str(payload.get("location", "unknown location")),
            span=dict(span) if isinstance(span, dict) else None,
            sites=[str(site) for site in payload.get("sites", [])],
            model={
                str(name): int(value)
                for name, value in dict(payload.get("model", {})).items()
            },
            atoms=[
                AtomEvaluation.from_dict(entry)
                for entry in payload.get("atoms", [])
                if isinstance(entry, dict)
            ],
            formula_text=str(payload.get("formula_text", "")),
            formula_value=payload.get("formula_value"),  # type: ignore[arg-type]
            zero_arrays=[str(name) for name in payload.get("zero_arrays", [])],
            check_method=str(payload.get("check_method", "")),
            excerpt=str(payload.get("excerpt", "")),
        )

    def attribution(self) -> Dict[str, object]:
        """The compact failure-attribution record (explorer candidates).

        A subset of :meth:`as_dict` that names *what* failed and *where*
        without the full forensic payload (no excerpt or atom table).
        """
        return {
            "rule": self.rule,
            "system": self.system,
            "kind": self.kind,
            "status": self.status,
            "reason": self.reason,
            "statement": self.statement,
            "location": self.location,
            "sites": list(self.sites),
            "model": dict(self.model),
        }

    def render(self) -> str:
        """The forensic text block for one failure."""
        header = f"{self.status.upper()} obligation [{self.rule}] in {self.program!r}"
        if self.study and self.study != self.program:
            header += f" (study {self.study})"
        lines = [header]
        lines.append(f"  system    : {self.system} ({self.kind})")
        lines.append(f"  what      : {self.description}")
        if self.statement:
            lines.append(f"  statement : {self.statement}")
        lines.append(f"  location  : {self.location}")
        if self.sites:
            lines.append(f"  sites     : {', '.join(self.sites)}")
        if self.reason:
            lines.append(f"  reason    : {self.reason}")
        if self.excerpt:
            lines.append("  source:")
            for excerpt_line in self.excerpt.splitlines():
                lines.append(f"    {excerpt_line}")
        if self.model:
            lines.append("  counterexample (concrete assignment):")
            for name in sorted(self.model):
                lines.append(f"    {name} = {self.model[name]}")
        elif (
            self.status == Status.INVALID.value
            and self.formula_value is False
            and not self.zero_arrays
        ):
            lines.append(
                "  counterexample: no free symbols: the formula is false "
                "in every state"
            )
        elif self.kind == ObligationKind.SATISFIABILITY.value and self.status == "unsat":
            lines.append(
                "  the relaxation predicate admits no assignment: "
                "the relaxed statement's denotation is empty"
            )
        if self.atoms:
            lines.append("  atom evaluation under the counterexample:")
            for atom in self.atoms:
                if atom.value is None:
                    mark = "?"
                    suffix = f"  ({atom.note})" if atom.note else ""
                else:
                    mark = "T" if atom.value else "F"
                    suffix = ""
                lines.append(f"    [{mark}] {atom.text}{suffix}")
        if self.zero_arrays:
            lines.append(
                "  array contents are not part of the model; cells of "
                f"{', '.join(self.zero_arrays)} assumed 0 (any concrete "
                "extension that falsifies the formula is a genuine witness)"
            )
        if self.formula_value is False:
            how = (
                "model substituted into the formula, refuted by the solver"
                if self.check_method == "solver-substitution"
                else "re-evaluates to false under the model"
            )
            lines.append(
                f"  formula {how} (counterexample confirmed mechanically)"
            )
        elif self.formula_value is True:
            lines.append(
                "  WARNING: formula re-evaluates to true under the model "
                "(evaluation domain may be too narrow)"
            )
        elif self.model or self.status == Status.INVALID.value:
            lines.append(
                "  formula could not be re-checked under the model "
                "(arrays, quantifier depth, or an inconclusive solver query)"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def attribute_result(result: ObligationResult) -> Optional[FailureDiagnostic]:
    """The attribution stage: provenance plus the rendered model.

    Fills exactly what :meth:`FailureDiagnostic.attribution` reads — which
    rule failed, where, on which sites, under which model — and nothing
    that costs evaluation: no excerpt, no atom table, no re-check of the
    model.  ``None`` if the result is discharged.
    """
    if result.discharged:
        return None
    obligation = result.obligation
    provenance = obligation.provenance
    diagnostic = FailureDiagnostic(
        rule=obligation.rule,
        system=obligation.system.value,
        kind=obligation.kind.value,
        status=result.status.value,
        reason=result.reason,
        statement=obligation.statement,
    )
    if provenance is not None:
        diagnostic.program = provenance.program
        diagnostic.study = provenance.study
        diagnostic.sites = list(provenance.sites)
        diagnostic.location = provenance.location()
        if provenance.span is not None:
            diagnostic.span = provenance.span.as_dict()
        if not diagnostic.statement:
            diagnostic.statement = provenance.statement
    if result.counterexample is not None:
        diagnostic.model = {
            str(symbol): value for symbol, value in result.counterexample.items()
        }
    return diagnostic


def diagnose_result(
    result: ObligationResult, budget_seconds: Optional[float] = None
) -> Optional[FailureDiagnostic]:
    """The full diagnostic: attribution plus excerpt, atoms and re-check.

    ``budget_seconds`` bounds each solver query of the re-check, as the
    engine's budget bounds each obligation.  ``None`` if the result is
    discharged.
    """
    diagnostic = attribute_result(result)
    if diagnostic is None:
        return None
    obligation = result.obligation
    provenance = obligation.provenance
    diagnostic.description = obligation.description
    diagnostic.formula_text = str(obligation.formula)
    if (
        provenance is not None
        and provenance.span is not None
        and provenance.source is not None
    ):
        diagnostic.excerpt = source_excerpt(provenance.source, provenance.span)
    # An empty model is still a model: a closed formula refuted outright.
    if result.counterexample is not None:
        model: Dict[Symbol, int] = dict(result.counterexample)
        diagnostic.atoms = evaluate_atoms(obligation.formula, model)
        (
            diagnostic.formula_value,
            diagnostic.zero_arrays,
            diagnostic.check_method,
        ) = _reevaluate_with_arrays(obligation.formula, model, budget_seconds)
    return diagnostic


def _undischarged(report) -> List[ObligationResult]:
    """Every undischarged result of a single-layer or combined report."""
    return [result for result in report.results if not result.discharged]


def attribute_report(report) -> List[FailureDiagnostic]:
    """Attribution-stage diagnostics for every undischarged obligation.

    What the explorer records per rejected candidate; see
    :func:`diagnose_report` for the full forensic payload.
    """
    return [attribute_result(result) for result in _undischarged(report)]


def diagnose_report(
    report, budget_seconds: Optional[float] = None
) -> List[FailureDiagnostic]:
    """Full diagnostics for every undischarged obligation of a report.

    Accepts either a single-layer
    :class:`~repro.hoare.obligations.VerificationReport` or a combined
    :class:`~repro.hoare.verifier.AcceptabilityReport`; ``budget_seconds``
    bounds each re-check query (see :func:`diagnose_result`).
    """
    return [
        diagnose_result(result, budget_seconds) for result in _undischarged(report)
    ]


def render_diagnostics(diagnostics: Sequence[FailureDiagnostic]) -> str:
    """Render a sequence of diagnostics as one separated report."""
    if not diagnostics:
        return "no failures to explain: every obligation discharged"
    blocks = [diagnostic.render() for diagnostic in diagnostics]
    return "\n\n".join(blocks)
