"""Exception taxonomy and argument checks shared across the betalab modules.

Every error raised on purpose by this package derives from :class:`BetalabError`,
so callers (and the CLI) can distinguish deliberate signalling from bugs.  The
subclasses also inherit from the closest builtin so that generic ``except
ValueError`` style handling keeps working.

:class:`Record` is the base of every frozen record in the package: the result
types (``SeriesControl``, ``SeriesResult``, ``QuadratureResult``,
``LimitResult``), the CLI's ``CommandInvocation`` and verify's
``IdentitySpec``, ``CheckRecord`` and ``SuiteReport``.  It lives here because
every module, and every CLI command, already loads this one, and it spares
them ``dataclasses``, whose import (with ``inspect`` and ``typing``) and
per-class code generation cost a one-shot command more than its own work.
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


class Record:
    """A frozen record, declared as a dataclass is.

    A subclass's fields are its annotations, in order; class attributes of
    the same names are the defaults of the trailing fields, and an optional
    ``__post_init__`` runs after construction.  Instances take positional
    and keyword arguments, refuse assignment and deletion with
    ``AttributeError``, compare and hash by their fields (only against the
    same class) and have the dataclass repr.  ``_fields`` names the fields,
    and ``_replace(**changes)`` builds a changed copy through the
    constructor, so ``__post_init__`` checks it again.
    Records are not tuples, so a routine that returns several results can
    still be told apart by ``isinstance(result, tuple)``.
    """

    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        cls = self.__class__
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in vars(cls):
                    raise TypeError(f"{cls.__name__} is missing field {name!r}")
                values[name] = vars(cls)[name]
        vars(self).update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


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
