"""The name of the evaluator the bounded model search runs on.

The bounded model search and model enumeration check candidate
assignments with the assertion logic's one evaluator,
:func:`repro.logic.evaluate.evaluate`, a recursive tree walker.  Run
records name it through :func:`active_backend`.
"""


def active_backend() -> str:
    """The evaluator this process's model searches run on."""
    return "tree"
