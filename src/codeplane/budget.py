"""Search budgets: node and wall-clock limits, the RNG seed, and the meter
that charges them, the library's only clock: every long loop asks a meter
whether to stop. The command line reads its defaults from here, so commands
that never search (``bounds``, ``strip``, ``approx``) do not load numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError, ContractViolationError

#: documented default RNG seed for every stochastic procedure
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SearchBudget:
    """Node/time limits plus the RNG seed; same budget + seed => same results.

    ``max_nodes`` is the determinism-bearing limit. ``max_millis`` is a
    wall-clock guard for interactive use; when it fires first, outcomes are
    still explicit (Unknown) but machine-dependent.
    """

    max_nodes: int = 2_000_000
    max_millis: Optional[int] = None
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ContractViolationError("max_nodes must be positive")
        if self.max_millis is not None and self.max_millis < 1:
            raise ContractViolationError("max_millis must be positive")


DEFAULT_BUDGET = SearchBudget()


class _Meter:
    """Counts expansions and watches the optional wall clock."""

    __slots__ = ("nodes", "cap", "deadline", "_tick")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.cap = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.max_millis / 1000.0
            if budget.max_millis is not None
            else None
        )
        self._tick = 0

    def spend(self, k: int = 1) -> bool:
        """Charge k nodes; False once the budget is exhausted."""
        self.nodes += k
        if self.nodes > self.cap:
            return False
        self._tick += 1
        if self.deadline is not None and (self._tick & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                return False
        return True

    def exhausted(self) -> bool:
        """True once the node cap or the wall clock has run out."""
        return self.nodes > self.cap or (
            self.deadline is not None and time.monotonic() > self.deadline
        )

    def check(self) -> None:
        """Raise BudgetExceededError once the budget is exhausted: the stop
        of loops that have no partial result to return."""
        if self.exhausted():
            spent = "node cap" if self.nodes > self.cap else "wall clock"
            raise BudgetExceededError(f"{spent} exhausted", nodes=self.nodes, cap=self.cap)
