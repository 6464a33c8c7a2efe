"""Approximate-memory substrate (Section 5.3's hardware model).

The paper's LU case study assumes data stored in low-power approximate
memory (Flikker / EnerJ style): reads may return a value that differs from
the stored value, with the error magnitude bounded (the paper models the
read error as an additive error ``e``).  This module provides that
substrate as a simulation:

* :class:`ApproximateMemory` — a word-addressable memory with a configurable
  error model (additive bounded error, or low-order bit flips with a
  per-bit upset probability, following the characterisation in the
  phase-change-memory literature the paper cites),
* :class:`ApproxMemoryChooser` — a nondeterminism strategy for the dynamic
  relaxed semantics that resolves ``relax (a) st (orig - e <= a <= orig + e)``
  by sampling the memory error model (so differential simulations exercise
  exactly the hardware behaviour the relax statement abstracts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..semantics.choosers import Chooser, MinimalChangeChooser
from ..semantics.state import State


@dataclass
class ErrorModel:
    """Configuration of the approximate-read error model."""

    max_magnitude: int = 0          # additive error bound (uniform in [-b, +b])
    bit_flip_probability: float = 0.0  # probability of flipping each low-order bit
    flippable_bits: int = 4            # how many low-order bits may flip

    def perturb(self, value: int, rng: random.Random) -> int:
        """Apply the error model to a read of ``value``."""
        result = value
        if self.max_magnitude > 0:
            result += rng.randint(-self.max_magnitude, self.max_magnitude)
        if self.bit_flip_probability > 0.0:
            for bit in range(self.flippable_bits):
                if rng.random() < self.bit_flip_probability:
                    result ^= 1 << bit
        return result


@dataclass
class ApproximateMemory:
    """A word-addressable approximate memory.

    Writes are exact (critical data paths in the cited systems write
    precisely); reads pass through the error model.  Reads and the errors
    they experienced are logged so experiments can report observed error
    distributions.
    """

    error_model: ErrorModel = field(default_factory=ErrorModel)
    seed: int = 0

    def __post_init__(self) -> None:
        self._cells: Dict[int, int] = {}
        self._rng = random.Random(self.seed)
        self.read_log: List[Dict[str, int]] = []

    def write(self, address: int, value: int) -> None:
        self._cells[address] = value

    def load(self, values: Sequence[int], base_address: int = 0) -> None:
        for offset, value in enumerate(values):
            self.write(base_address + offset, value)

    def read(self, address: int) -> int:
        exact = self._cells[address]
        observed = self.error_model.perturb(exact, self._rng)
        self.read_log.append(
            {"address": address, "exact": exact, "observed": observed, "error": observed - exact}
        )
        return observed

    def max_observed_error(self) -> int:
        if not self.read_log:
            return 0
        return max(abs(entry["error"]) for entry in self.read_log)


class ApproxMemoryChooser(Chooser):
    """Resolve ``relax`` statements by sampling the approximate-memory model.

    The chooser applies the error model to the *current* value of each relax
    target and clamps the result so the relaxation predicate (a bounded
    error around the original value) is respected — mirroring how the paper
    uses the relax statement to model the hardware's error envelope.
    """

    def __init__(self, error_model: ErrorModel, error_bound_var: str = "e", seed: int = 0) -> None:
        self._error_model = error_model
        self._error_bound_var = error_bound_var
        self._rng = random.Random(seed)
        self._fallback = MinimalChangeChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        bound = (
            state.scalar(self._error_bound_var)
            if state.has_scalar(self._error_bound_var)
            else self._error_model.max_magnitude
        )
        updates: Dict[str, int] = {}
        for name in statement.targets:
            if state.has_array(name):
                values = state.array(name)
                perturbed = {
                    index: self._clamp(self._error_model.perturb(value, self._rng), value, bound)
                    for index, value in values.items()
                }
                state = state.set_array(name, perturbed)
                continue
            if not state.has_scalar(name):
                return self._fallback.choose(statement, state)
            current = state.scalar(name)
            updates[name] = self._clamp(
                self._error_model.perturb(current, self._rng), current, bound
            )
        return state.set_scalars(updates)

    @staticmethod
    def _clamp(value: int, reference: int, bound: int) -> int:
        low, high = reference - bound, reference + bound
        return max(low, min(high, value))
