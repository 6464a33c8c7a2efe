"""Source text and spans for builder-built and transformed programs.

Programs parsed from text carry their source and per-node spans natively;
programs assembled with AST constructors (the case-study builders) or
rewritten by the relaxation transforms have neither.  :func:`ensure_source`
closes that gap with :func:`repro.lang.pretty.print_with_spans`: the
printer emits the program's concrete syntax and, in the same pass,
rebuilds it as fresh nodes spanned into that text — exactly the program
the parser would return for it, without running the parser.

The rebuilt program equals the input up to ``Seq`` association (every
block comes back right-nested, as the parser builds it), which is
semantically irrelevant: ``;`` is associative and the proof rules fold
over the flattened statement list.  That the printed text parses back to
the same program with the same spans is not re-checked here, on the
verify path; it is pinned by a tier-1 differential test over generated
programs and every study candidate, and by the ``program-parses`` check
of the case-study lint.
"""

from __future__ import annotations

from .ast import Program
from .pretty import print_with_spans


def ensure_source(program: Program) -> Program:
    """Return ``program`` with ``source`` text and node spans attached.

    A program that carries both source text *and* spans (i.e. one that came
    out of the parser unmodified) is returned as-is.  Any other program —
    builder-built, or with stale source because a transform rebuilt the
    body without spans while :func:`dataclasses.replace` carried the old
    text along — is re-derived from its pretty-printed form.

    The returned program is structurally equal to the input up to Seq
    association (node equality is span-blind), so divergence-spec anchors
    and obligation fingerprints are unaffected.
    """
    if program.source is not None and program.body.span is not None:
        return program
    return print_with_spans(program)
