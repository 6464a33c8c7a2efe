"""Workload generators for the case studies and benchmarks.

The paper evaluates its approach on fragments of three applications:
Swish++ (search), the Water molecular-dynamics computation (Perfect
benchmarks) and the SciMark2 LU decomposition.  The real inputs are not
redistributable, so these generators produce synthetic workloads with the
same relevant structure:

* ranked search-result counts (Swish++),
* per-molecule interaction magnitudes reduced into the ``RS`` array (Water),
* dense integer matrices / column vectors for pivot selection (LU).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class SwishWorkload:
    """One Swish++ query: number of matching results and the requested cap."""

    num_results: int
    requested_max_r: int


def generate_swish_workloads(count: int, seed: int = 0, max_results: int = 60) -> List[SwishWorkload]:
    """Generate query workloads spanning the small/large result-count regimes."""
    rng = random.Random(seed)
    workloads = []
    for index in range(count):
        if index % 3 == 0:
            num_results = rng.randint(0, 9)        # fewer than the 10-result floor
        elif index % 3 == 1:
            num_results = rng.randint(10, 25)
        else:
            num_results = rng.randint(26, max_results)
        requested = rng.randint(max(1, num_results // 2), max_results)
        workloads.append(SwishWorkload(num_results=num_results, requested_max_r=requested))
    return workloads


@dataclass(frozen=True)
class WaterWorkload:
    """One Water outer-loop instance: interaction magnitudes per molecule pair."""

    interactions: Tuple[int, ...]
    cutoff: int
    array_length: int


def generate_water_workloads(
    count: int, molecules: int = 8, seed: int = 0, magnitude: int = 6
) -> List[WaterWorkload]:
    """Generate Water-style reduction workloads.

    ``interactions`` models the per-pair contributions accumulated into RS;
    ``cutoff`` models gCUT2; ``array_length`` models len_FF (always at least
    the number of molecules so in-bounds accesses are the developer's
    intended behaviour, exactly as the paper's assume states)."""
    rng = random.Random(seed)
    workloads = []
    for _ in range(count):
        interactions = tuple(rng.randint(0, magnitude) for _ in range(molecules))
        cutoff = rng.randint(1, magnitude)
        workloads.append(
            WaterWorkload(
                interactions=interactions,
                cutoff=cutoff,
                array_length=molecules + rng.randint(0, 4),
            )
        )
    return workloads


@dataclass(frozen=True)
class LUWorkload:
    """One LU pivot-selection instance: a matrix column and the error bound."""

    column: Tuple[int, ...]
    error_bound: int


def generate_lu_workloads(
    count: int, column_length: int = 8, seed: int = 0, magnitude: int = 50
) -> List[LUWorkload]:
    """Generate SciMark2-style pivot columns with varying error bounds."""
    rng = random.Random(seed)
    workloads = []
    for index in range(count):
        column = tuple(rng.randint(-magnitude, magnitude) for _ in range(column_length))
        error_bound = [0, 1, 2, 4, 8][index % 5]
        workloads.append(LUWorkload(column=column, error_bound=error_bound))
    return workloads


@dataclass(frozen=True)
class ReductionWorkload:
    """One sum-reduction instance: bounded non-negative terms."""

    terms: Tuple[int, ...]
    term_bound: int


def generate_reduction_workloads(
    count: int, length: int = 8, seed: int = 0, magnitude: int = 9
) -> List[ReductionWorkload]:
    """Generate reduction inputs whose terms respect the declared bound.

    Every term lies in ``[0, term_bound]`` — the integrity belief the
    sum-perforation kernel records with its in-loop assumes."""
    rng = random.Random(seed)
    workloads = []
    for _ in range(count):
        bound = rng.randint(1, magnitude)
        terms = tuple(rng.randint(0, bound) for _ in range(length))
        workloads.append(ReductionWorkload(terms=terms, term_bound=bound))
    return workloads


@dataclass(frozen=True)
class StencilWorkload:
    """One stencil instance: cell values plus a per-cell error envelope."""

    cells: Tuple[int, ...]
    envelopes: Tuple[int, ...]


def generate_stencil_workloads(
    count: int, length: int = 8, seed: int = 0, magnitude: int = 20, max_envelope: int = 3
) -> List[StencilWorkload]:
    """Generate stencil rows with non-negative per-cell error envelopes."""
    rng = random.Random(seed)
    workloads = []
    for index in range(count):
        cells = tuple(rng.randint(-magnitude, magnitude) for _ in range(length))
        if index % 4 == 0:
            envelopes = tuple(0 for _ in range(length))  # exact-memory rows
        else:
            envelopes = tuple(rng.randint(0, max_envelope) for _ in range(length))
        workloads.append(StencilWorkload(cells=cells, envelopes=envelopes))
    return workloads


@dataclass(frozen=True)
class SearchWorkload:
    """One branch-and-bound instance: candidate scores, bound and cutoff."""

    scores: Tuple[int, ...]
    upper_bound: int
    cutoff: int


def generate_search_workloads(
    count: int, length: int = 10, seed: int = 0, magnitude: int = 40
) -> List[SearchWorkload]:
    """Generate search instances; the cutoff spans full and truncated scans."""
    rng = random.Random(seed)
    workloads = []
    for index in range(count):
        upper_bound = rng.randint(magnitude // 2, magnitude)
        scores = tuple(rng.randint(-magnitude, upper_bound) for _ in range(length))
        cutoff = length if index % 3 == 0 else rng.randint(1, length)
        workloads.append(
            SearchWorkload(scores=scores, upper_bound=upper_bound, cutoff=cutoff)
        )
    return workloads


@dataclass(frozen=True)
class PipelineWorkload:
    """One two-stage pipeline instance: stage sizes, knobs and drop budget."""

    stage1_items: int
    stage2_items: int
    knob1: int
    knob2: int
    budget: int


def generate_pipeline_workloads(
    count: int, seed: int = 0, max_items: int = 30, knob_floor: int = 4
) -> List[PipelineWorkload]:
    """Generate pipeline instances with knobs at or above the shared floor."""
    rng = random.Random(seed)
    workloads = []
    for _ in range(count):
        workloads.append(
            PipelineWorkload(
                stage1_items=rng.randint(0, max_items),
                stage2_items=rng.randint(0, max_items),
                knob1=rng.randint(knob_floor, max_items),
                knob2=rng.randint(knob_floor, max_items),
                budget=rng.randint(0, 2 * max_items),
            )
        )
    return workloads


def generate_matrix(size: int, seed: int = 0, magnitude: int = 50) -> List[List[int]]:
    """Generate a dense integer matrix (used by the LU example application)."""
    rng = random.Random(seed)
    return [
        [rng.randint(-magnitude, magnitude) for _ in range(size)] for _ in range(size)
    ]
