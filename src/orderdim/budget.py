"""Search budgets.

Exhaustive enumerations (linear extensions, realizers, critical-pair
colourings, grid and copy colorings, amalgams) are exponential in the
worst case.  Rather than hang, every search resolves one step budget per
public call through `effective_budget`: an explicit `budget=` argument,
else the ORDERDIM_BUDGET environment variable, else 1,000,000.  Its
steps are counted on one `BudgetMeter`, whose phase name starts the
LimitExceeded message.  Searches whose size is known up front also
refuse, before any work, a space larger than the whole budget.
"""

from __future__ import annotations

import os

from .errors import LimitExceeded

DEFAULT_EXTENSION_BUDGET = 1_000_000

# Hard cap on poset size for the orders that enumerate all linear
# extensions.  |P| = 10 already admits up to 10! = 3.6M extensions.
DEFAULT_MAX_ELEMENTS = 10

ENV_VAR = "ORDERDIM_BUDGET"


def effective_budget(explicit: int | None = None) -> int:
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
    """

    __slots__ = ("budget", "remaining", "what")

    def __init__(self, budget: int, what: str):
        self.budget = budget
        self.remaining = budget
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
            raise LimitExceeded(
                f"{self.what}: {detail}: {cases} cases, "
                f"over the budget of {self.budget}"
            )
