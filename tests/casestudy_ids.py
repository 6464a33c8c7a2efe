"""Pytest ids for tests parametrized over the registered case studies.

An id is the study's name in CamelCase (``LUApproximateMemory`` for
``lu-approximate-memory``), so test ids stay stable as studies are added.
"""

_ACRONYMS = {"lu": "LU"}


def study_id(study) -> str:
    return "".join(_ACRONYMS.get(part, part.capitalize()) for part in study.name.split("-"))
