"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from OrderError so the CLI can map any library failure
to a single-line error report and exit code 1.
"""

from __future__ import annotations


class OrderError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(OrderError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"duplicate element label {label!r}")


class ReflexiveViolation(OrderError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"relation is reflexive at {label!r}")


class TransitivityViolation(OrderError):
    def __init__(self, a: str, b: str, c: str):
        self.triple = (a, b, c)
        super().__init__(
            f"transitivity fails: {a!r} < {b!r} and {b!r} < {c!r} but not {a!r} < {c!r}"
        )


class CycleIntroduced(OrderError):
    """Forcing the requested pairs creates a cycle; `cycle` walks it."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("forced pairs introduce a cycle: " + " < ".join(self.cycle))


class CycleFound(OrderError):
    """A closure operation produced a cycle; `cycle` walks it."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("closure contains a cycle: " + " < ".join(self.cycle))


class ElementMismatch(OrderError):
    """Inputs range over different elements, or name one that is not there."""


class ColinearPoints(OrderError):
    """Two cloud points share a coordinate (or coincide outright)."""

    def __init__(self, i: int, j: int, axis: int | None):
        self.pair = (i, j)
        self.axis = axis
        what = "coincide" if axis is None else f"share coordinate {axis}"
        super().__init__(f"points {i} and {j} {what}")


class NotARealizer(OrderError):
    """Orders do not realize the order they come with."""


class TooSmall(OrderError):
    """An input is below the least size a construction accepts."""


class LimitExceeded(OrderError):
    """A search budget ran out before the answer was certain."""


class SelfCheckFailed(OrderError):
    """A result failed the library's own cross-check: a bug, not bad input."""


class InvalidEmbedding(OrderError):
    """A mapping does not preserve the structure it embeds."""


class NotOrderPreserving(OrderError):
    """A map does not preserve the partial order."""


class FlipNotRealizable(OrderError):
    """The two pairs disagree in a way no coordinate permutation can repair."""


class DecompositionFailed(OrderError):
    """An automorphism does not factor through exactly one axis permutation."""
