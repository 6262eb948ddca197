"""Exception taxonomy and argument checks shared across the betalab modules.

Every error raised on purpose by this package derives from :class:`BetalabError`,
so callers (and the CLI) can distinguish deliberate signalling from bugs.  The
subclasses also inherit from the closest builtin so that generic ``except
ValueError`` style handling keeps working.
"""

from __future__ import annotations

__all__ = [
    "BetalabError",
    "DomainError",
    "OverflowRangeError",
    "EvaluationError",
    "NonConvergenceError",
    "UnknownIdentityError",
]


class BetalabError(Exception):
    """Base class for all errors raised by betalab."""


class DomainError(BetalabError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class OverflowRangeError(BetalabError, OverflowError):
    """A result (or required intermediate) exceeds double-precision range."""


class EvaluationError(BetalabError, ArithmeticError):
    """A user-supplied callable produced a non-finite value."""


class NonConvergenceError(BetalabError, RuntimeError):
    """An adaptive computation hit its refinement cap before reaching tolerance.

    The partially converged result, when available, is attached as ``result``
    so callers can still inspect value / error estimate / work done.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class UnknownIdentityError(BetalabError, KeyError):
    """A verification filter named an identity that is not in the registry."""

    def __str__(self) -> str:
        # KeyError would repr() the message; keep it readable.
        return self.args[0] if self.args else ""


# --- argument checks shared by every public entry point ---------------------
# Only int and float count as numbers: bool, str, None and ints beyond double
# range are rejected, never converted.  Plain floats take the cheap first branch.

_MAX = 1.7976931348623157e308  # largest finite double


def finite_real(x, name: str) -> float:
    """``x`` as a float if it is a finite int or float, else :class:`DomainError`."""
    if x.__class__ is float:
        if -_MAX <= x <= _MAX:
            return x
    elif isinstance(x, (int, float)) and not isinstance(x, bool) and -_MAX <= x <= _MAX:
        return float(x)
    raise DomainError(f"{name} must be a finite real, got {x!r}")


def positive_real(x, name: str) -> float:
    """``x`` as a float if it is a finite positive int or float, else :class:`DomainError`."""
    if x.__class__ is float:
        if 0.0 < x <= _MAX:
            return x
    elif isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x <= _MAX:
        return float(x)
    raise DomainError(f"{name} must be a finite positive real, got {x!r}")


def integer(n, name: str, lo: int, hi: int | None = None) -> int:
    """``n`` if it is an int in ``[lo, hi]`` (``hi`` defaults to the double range)."""
    if isinstance(n, int) and not isinstance(n, bool) and lo <= n <= (_MAX if hi is None else hi):
        return n
    bound = f"a finite integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    raise DomainError(f"{name} must be {bound}, got {n!r}")
