"""Exception hierarchy for the outangles package.

Every domain failure raises a subclass of :class:`OuError`, so callers (and
the CLI) can distinguish "the mathematics said no" from programming errors.
"""

from __future__ import annotations

__all__ = [
    "CapExceeded",
    "CyclicDiagram",
    "InvalidDiagram",
    "NotADivisor",
    "NotReducedOU",
    "OuError",
    "ParseError",
    "ResourceLimit",
    "SameCrossing",
    "StrandCountMismatch",
]


class OuError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidDiagram(OuError):
    """A diagram violates a structural invariant (duplicate mark keys on a
    strand, end-of-strand key not maximal, float keys, bad strand index)."""


class ParseError(OuError):
    """Malformed diagram or braid-word text.

    Carries ``line`` and ``column`` (1-based) when they are known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class StrandCountMismatch(OuError):
    """Two objects that must live on the same number of strands do not."""


class SameCrossing(OuError):
    """A glide was requested on an interval whose under and over marks belong
    to one crossing; the move is undefined there (the cyclic kink case)."""


class CyclicDiagram(OuError):
    """The diagram admits a closed cascade path, so it cannot be brought to
    over-then-under form by glide moves."""


class CapExceeded(OuError):
    """The glide-rewriting loop hit its iteration cap before reaching a
    normal form."""


class NotReducedOU(OuError):
    """An operation that requires a reduced over-then-under tangle was given
    something else."""


class NotADivisor(OuError):
    """A quotient was requested by a generator that does not lower the
    reduced crossing number."""


class ResourceLimit(OuError):
    """An enumeration exceeded its configured memory / stored-key budget."""
