"""Exception types shared across the toolkit."""

from __future__ import annotations


class TreeLtsError(Exception):
    """Base class for all errors raised by this package."""


class NotATree(TreeLtsError):
    """The shared-action graph of the components is not a tree."""


class UnknownRoot(TreeLtsError):
    """The requested root does not name any component."""


class StateLimitExceeded(TreeLtsError):
    """An explicit construction hit the configured state cap."""

    def __init__(self, cap: int, seen: int) -> None:
        super().__init__(f"state cap of {cap} exceeded ({seen} states discovered)")
        self.cap = cap
        self.seen = seen


class EmptyProjection(TreeLtsError):
    """A prefix was projected onto an empty set of components."""


class NotTwoLevel(TreeLtsError):
    """A square construction was asked for on a network that is not a
    two-level tree (root plus leaf children)."""


class EmptyReduction(TreeLtsError):
    """No longer raised: when pruning removes every square, the bare glue
    state is the result.  Kept for callers that still catch it."""


class InvalidWitness(TreeLtsError):
    """A path does not replay on the structure it was claimed for."""


class OracleTooLarge(TreeLtsError):
    """The brute-force product needed as an oracle does not fit the cap."""


class ParseError(TreeLtsError):
    """A model file is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(TreeLtsError):
    """A model file parsed but does not describe a valid network."""


class LiveResetWarning(UserWarning):
    """An unreachable transition breaks the reset discipline; reported as a
    warning rather than a violation."""
