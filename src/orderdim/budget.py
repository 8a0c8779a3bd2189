"""Search budgets.

Exhaustive enumerations (linear extensions, realizers, critical-pair
colourings, grid and copy colorings, amalgams) are exponential in the
worst case.  Rather than hang, every public search call counts its steps
on one `BudgetMeter`, whose phase name starts the LimitExceeded message.
The meter resolves its own budget through `effective_budget`, the one
reader of it: an explicit `budget=` argument, else the ORDERDIM_BUDGET
environment variable, read when the meter is made, else 1,000,000.
Searches whose size is known up front also refuse, before any work, a
space larger than the whole budget.
"""

from __future__ import annotations

import os
from math import log10

from .errors import LimitExceeded

DEFAULT_EXTENSION_BUDGET = 1_000_000

ENV_VAR = "ORDERDIM_BUDGET"


def effective_budget(explicit: int | None) -> int:
    """Budget to use: explicit argument, else env override, else default."""
    if explicit is not None:
        if explicit <= 0:
            raise ValueError("budget must be positive")
        return explicit
    raw = os.environ.get(ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise ValueError(f"{ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_EXTENSION_BUDGET


class BudgetMeter:
    """Counts down enumeration steps; raises LimitExceeded at zero.

    Cheap enough to tick once per node in a backtracking search.  `what`
    names the phase running now; a search may rename it between phases.
    A budget of None takes the environment's or the default.
    """

    __slots__ = ("budget", "remaining", "what")

    def __init__(self, budget: int | None, what: str):
        self.budget = self.remaining = effective_budget(budget)
        self.what = what

    def tick(self, cost: int = 1) -> None:
        self.remaining -= cost
        if self.remaining < 0:
            raise LimitExceeded(
                f"{self.what}: step budget exhausted "
                f"(raise {ENV_VAR} or pass budget= to continue)"
            )

    def require(self, cases: int, detail: str) -> None:
        """Refuse up front a space of `cases` that the budget cannot cover."""
        if cases > self.budget:
            try:
                count = str(cases)
            except ValueError:
                # Past the interpreter's cap on digits an int may print with.
                count = f"at least 10^{int((cases.bit_length() - 1) * log10(2))}"
            raise LimitExceeded(
                f"{self.what}: {detail}: {count} cases, "
                f"over the budget of {self.budget}"
            )
