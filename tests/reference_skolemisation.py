"""The sequential skolemisation of positive existentials (tests only).

:func:`repro.solver.normalize.strip_positive_existentials` carries one
renaming down the formula and applies it once per quantifier-free
subformula.  This is the version it replaced, kept as the oracle of the
differential test: each existential draws its fresh symbol and
substitutes it into its whole remaining body at once, so a chain of
binders re-walks the body once per binder.  A universal's body is left
unstripped, as in the solver, and the fresh names avoid every free and
bound name of the input, as in the solver.
"""

from __future__ import annotations

from typing import Optional

from repro.logic.formula import (
    And,
    Exists,
    Forall,
    Formula,
    FreshSymbols,
    Or,
    SymTerm,
    conj,
    disj,
    free_symbols,
)
from repro.logic.subst import substitute
from repro.logic.traverse import iter_nodes


def sequential_strip(formula: Formula, fresh: Optional[FreshSymbols] = None) -> Formula:
    if fresh is None:
        bound = [
            node.symbol.name for node in iter_nodes(formula) if isinstance(node, (Exists, Forall))
        ]
        fresh = FreshSymbols([s.name for s in free_symbols(formula)] + bound)

    def process(f: Formula) -> Formula:
        if isinstance(f, Exists):
            replacement = fresh.fresh(f.symbol.name, f.symbol.tag)
            body = substitute(f.body, {f.symbol: SymTerm(replacement)})
            return process(body)
        if isinstance(f, And):
            return conj(*[process(op) for op in f.operands])
        if isinstance(f, Or):
            return disj(*[process(op) for op in f.operands])
        return f

    return process(formula)
