"""Racy-parallel-update substrate (Section 5.2's relaxation source).

The paper's Water case study relaxes a parallelised reduction whose lock
elision lets concurrent updates race: some updates may be lost depending on
the CPU schedule, so the reduced array ``RS`` takes nondeterministic values.
The paper models this with ``relax (RS) st (true)``.

This module simulates the substrate that produces those values:

* :class:`RacyReductionSimulator` — runs a simulated parallel reduction in
  which each "thread" performs read-modify-write updates without locking;
  a seeded scheduler interleaves the operations, so updates can be lost
  exactly as in the real racy program,
* :class:`RacyArrayChooser` — a dynamic-semantics nondeterminism strategy
  that resolves ``relax (RS) st (true)`` with the simulator's output, so the
  differential executions exercise realistic lost-update patterns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..semantics.choosers import Chooser, MinimalChangeChooser
from ..semantics.state import State


@dataclass(frozen=True)
class Update:
    """One read-modify-write contribution to a reduction cell."""

    cell: int
    delta: int
    thread: int


@dataclass
class RacyReductionSimulator:
    """Simulate a lock-free parallel reduction with lost updates.

    Each update is split into a read and a write event; the scheduler
    interleaves events from different threads uniformly at random.  When two
    threads interleave read-read-write-write on the same cell, one update is
    lost — the classic atomicity violation the paper's relaxation models.
    """

    threads: int = 4
    seed: int = 0

    def run(self, initial: Sequence[int], updates: Sequence[Update]) -> List[int]:
        rng = random.Random(self.seed)
        cells = list(initial)
        # Partition updates among threads, preserving per-thread order.
        per_thread: Dict[int, List[Update]] = {t: [] for t in range(self.threads)}
        for update in updates:
            per_thread[update.thread % self.threads].append(update)
        # Each thread's state machine: (pending update, value read so far).
        positions = {t: 0 for t in range(self.threads)}
        pending_read: Dict[int, Optional[Tuple[Update, int]]] = {t: None for t in range(self.threads)}
        lost = 0
        active = [t for t in range(self.threads) if per_thread[t]]
        while active:
            thread = rng.choice(active)
            holding = pending_read[thread]
            if holding is None:
                update = per_thread[thread][positions[thread]]
                pending_read[thread] = (update, cells[update.cell])
            else:
                update, read_value = holding
                current = cells[update.cell]
                if current != read_value:
                    lost += 1
                cells[update.cell] = read_value + update.delta
                pending_read[thread] = None
                positions[thread] += 1
                if positions[thread] >= len(per_thread[thread]):
                    active.remove(thread)
        self.lost_updates = lost
        return cells

    def exact(self, initial: Sequence[int], updates: Sequence[Update]) -> List[int]:
        """The result of the same reduction with atomic (locked) updates."""
        cells = list(initial)
        for update in updates:
            cells[update.cell] += update.delta
        return cells


def generate_reduction_workload(
    cells: int, updates_per_cell: int, seed: int = 0, magnitude: int = 4
) -> Tuple[List[int], List[Update]]:
    """Generate a reduction workload (initial cells and update stream)."""
    rng = random.Random(seed)
    initial = [rng.randint(-magnitude, magnitude) for _ in range(cells)]
    updates: List[Update] = []
    for cell in range(cells):
        for _ in range(updates_per_cell):
            updates.append(
                Update(cell=cell, delta=rng.randint(1, magnitude), thread=rng.randrange(1 << 16))
            )
    rng.shuffle(updates)
    return initial, updates


class RacyArrayChooser(Chooser):
    """Resolve ``relax (RS) st (true)`` with simulated racy reduction results."""

    def __init__(
        self,
        array_name: str = "RS",
        threads: int = 4,
        updates_per_cell: int = 3,
        seed: int = 0,
    ) -> None:
        self._array_name = array_name
        self._threads = threads
        self._updates_per_cell = updates_per_cell
        self._seed = seed
        self._fallback = MinimalChangeChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        if self._array_name not in statement.targets or not state.has_array(self._array_name):
            return self._fallback.choose(statement, state)
        contents = state.array(self._array_name)
        indices = sorted(contents)
        base = [0 for _ in indices]
        updates: List[Update] = []
        rng = random.Random(self._seed)
        for position, index in enumerate(indices):
            # Decompose the current (exact) value into unit contributions so the
            # racy schedule can lose some of them.
            remaining = contents[index]
            step = 1 if remaining >= 0 else -1
            for _ in range(abs(remaining)):
                updates.append(Update(cell=position, delta=step, thread=rng.randrange(1 << 16)))
        simulator = RacyReductionSimulator(threads=self._threads, seed=self._seed)
        racy = simulator.run(base, updates)
        new_contents = {index: racy[position] for position, index in enumerate(indices)}
        new_state = state.set_array(self._array_name, new_contents)
        # Other scalar targets (if any) keep their values when the predicate allows.
        return new_state
