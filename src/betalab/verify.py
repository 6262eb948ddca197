"""Identity registry, grid runner, and deterministic report rendering.

Every classical relation implemented elsewhere in the package is registered
here as an :class:`IdentitySpec`: a left-hand and right-hand evaluator, a
parameter grid, and a tolerance with one of three modes.

* ``absolute`` - pass iff ``|lhs - rhs| <= tol``.
* ``relative`` - pass iff ``|lhs - rhs| <= tol * max(|lhs|, |rhs|)``; used
  where values span orders of magnitude (Pochhammer products, duplication).
* ``tail_aware`` - pass iff ``|lhs - rhs| <= tol + tail_estimate``; used for
  the algebraically convergent series, whose ``tail_estimate`` bounds the
  error of their value.

Evaluator errors (domain violations, overflow, refinement caps) become
*skipped* records carrying the reason - the suite never aborts and never
silently passes.  Records are sorted by (identity id, grid position), all
floats are serialized with 17 significant digits, and no timestamps are
embedded, so two runs over the same inputs render byte-identical reports.

The two-convention series for ``psi'(1/2)`` and ``zeta(2)`` are registered
under their ``corrected`` inner-sum convention (lower index k = 0, the one
consistent with ``psi(3/2) - psi(1/2) = 2``); the ``literal`` convention
(k = 1) is reported in the ``informational`` section, never as pass/fail.
The two differ by ``4 log 2``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Mapping
from contextvars import ContextVar
from types import MappingProxyType, ModuleType

from . import core_special as cs
from . import limits as lm
from . import quadrature as qd
from . import series as sr
from .errors import (
    DomainError,
    NonConvergenceError,
    OverflowRangeError,
    Record,
    UnknownIdentityError,
    positive_real,
)

__all__ = [
    "TOOL_VERSION",
    "ABSOLUTE",
    "RELATIVE",
    "TAIL_AWARE",
    "IdentitySpec",
    "CheckRecord",
    "SuiteReport",
    "builtin_registry",
    "run_identity",
    "run_suite",
    "render_report",
]

TOOL_VERSION = "0.11.0"

ABSOLUTE = "absolute"
RELATIVE = "relative"
TAIL_AWARE = "tail_aware"
_MODES = (ABSOLUTE, RELATIVE, TAIL_AWARE)

_DIAG_KEYS = ("terms_used", "tail_estimate", "levels_used", "table_depth")
# Keys of an informational entry, in report order.
_INFO_KEYS = ("identity_id", "convention", "value", "reference", "abs_difference")

_FD_STEP = 1e-5  # central-difference step for the derivative cross-check


class IdentitySpec(Record):
    """One registered identity: evaluators, grid, and pass criterion.

    ``lhs`` and ``rhs`` are called with a grid tuple unpacked as positional
    arguments and return either a float or a result object with a ``.value``
    and any of the attributes terms_used / tail_estimate / levels_used /
    table_depth, which become the record's diagnostics.  A spec needs a
    non-empty grid without a non-finite float, a finite positive tolerance
    and a known mode, or it raises :class:`DomainError`.
    """

    id: str
    description: str
    anchor: str
    grid: tuple[tuple, ...]
    tolerance: float
    tolerance_mode: str
    lhs: Callable[..., object]
    rhs: Callable[..., object]

    def __post_init__(self) -> None:
        if not self.grid:
            raise DomainError(f"identity {self.id!r} has an empty grid")
        for point in self.grid:
            if any(isinstance(p, float) and not math.isfinite(p) for p in point):
                raise DomainError(f"identity {self.id!r} grid point {point!r} is not finite")
        positive_real(self.tolerance, f"identity {self.id!r} tolerance")
        if self.tolerance_mode not in _MODES:
            raise DomainError(
                f"identity {self.id!r} tolerance_mode must be one of {_MODES}"
            )


class CheckRecord(Record):
    """Outcome of one identity at one grid point.

    ``passed`` is True/False for evaluated points and None for skipped ones
    (where the numeric fields are None as well and ``reason`` says why).
    The defaults describe a skipped record.  ``params`` is kept as a tuple and
    ``diagnostics`` as a read-only copy, since a report keeps the cells it
    renders from them.
    """

    identity_id: str
    params: tuple
    lhs_value: float | None = None
    rhs_value: float | None = None
    abs_err: float | None = None
    rel_err: float | None = None
    effective_tol: float | None = None
    passed: bool | None = None
    skipped: bool = True
    reason: str | None = None
    diagnostics: Mapping = MappingProxyType({})

    def __post_init__(self) -> None:
        diagnostics = MappingProxyType(dict(self.diagnostics))
        vars(self).update(params=tuple(self.params), diagnostics=diagnostics)


# Report columns as (name, CheckRecord field): every field but the trailing
# diagnostics, in declaration order, three under a shorter name.  The
# diagnostics follow: an object in JSON, one CSV column per _DIAG_KEYS entry.
_COLUMNS = tuple(
    ({"lhs_value": "lhs", "rhs_value": "rhs", "passed": "pass"}.get(name, name), name)
    for name in CheckRecord._fields[:-1]
)
_column_values = operator.attrgetter(*(f for _, f in _COLUMNS))  # record -> tuple


class SuiteReport(Record):
    """All records of a suite run plus counts and informational entries.

    The records and entries are kept as tuples and the mappings as read-only
    copies, so the cells formatted at the first render stay those of the report.
    """

    records: tuple[CheckRecord, ...]
    counts: Mapping[str, int]
    tool_version: str
    informational: tuple[Mapping, ...]

    def __post_init__(self) -> None:
        vars(self).update(
            records=tuple(self.records),
            counts=MappingProxyType(dict(self.counts)),
            informational=tuple(MappingProxyType(dict(obs)) for obs in self.informational),
        )

    @functools.cached_property
    def _cell_texts(self) -> tuple[list, list]:
        """Each record's cells, and each informational entry's, as a pair (CSV and table
        texts, JSON texts): formatted at the first render, kept as long as the report."""
        return ([_texts(_cells(r)) for r in self.records],
                [_texts(map(obs.get, _INFO_KEYS)) for obs in self.informational])


# --- evaluator plumbing ---------------------------------------------------


# Inside a run_suite pass, each routine result by (module, name, argument types and
# reprs); None outside one.  A context variable, so a pass is its own thread's alone.
_results: ContextVar[dict | None] = ContextVar("results", default=None)


class _Routine(Record):
    """A registry side that is one layer routine, looked up in its module at each call.
    Within a pass, calls with the same int, float and str arguments by exact type and
    ``repr`` (``5`` is not ``5.0``) share the first one's result, unless it raised."""

    module: ModuleType
    name: str

    def __call__(self, *args):
        results = _results.get()
        if results is None or not all(type(a) in (int, float, str) for a in args):
            return getattr(self.module, self.name)(*args)
        key = (self.module, self.name, *map(type, args), *map(repr, args))
        if key not in results:
            results[key] = getattr(self.module, self.name)(*args)
        return results[key]


def _route(side: Callable, params: tuple) -> tuple[float, Mapping]:
    """``side`` at ``params`` and the ``_DIAG_KEYS`` attributes its result carries: a
    float carries none, a result object its ``.value`` and any of them."""
    result = side(*params)
    if isinstance(result, float):
        return result, {}
    return result.value, {key: getattr(result, key) for key in _DIAG_KEYS if hasattr(result, key)}


def _merge_diag(a: Mapping, b: Mapping) -> dict:
    """Both sides' diagnostics: tail estimates add up, otherwise ``b`` wins."""
    merged = {key: b.get(key, a.get(key)) for key in _DIAG_KEYS if key in a or key in b}
    if "tail_estimate" in merged:
        merged["tail_estimate"] = a.get("tail_estimate", 0.0) + b.get("tail_estimate", 0.0)
    return merged


# --- the registry ---------------------------------------------------------

_U7 = (0.25, 0.5, 0.75, 1.0, 2.0, 3.5, 5.0)
_V3 = (0.5, 1.0, 2.5)
_log_moment = _Routine(qd, "log_kernel_moment")  # EQ1, EQ3, EQ4 and EQ4H share it
_trigamma_half = _Routine(sr, "trigamma_half_series")  # EQ10 and EQ11 share it


def _log_moment_form(u: float) -> qd.QuadratureResult:
    res = _log_moment(u)
    return res._replace(value=u * res.value + 1.0 / u)


def _neg_n_log_moment(n: float) -> qd.QuadratureResult:
    res = _log_moment(n)
    return res._replace(value=-n * res.value)


def _eq3_rhs(u: float) -> qd.QuadratureResult:
    res = _log_moment_form(u)
    return res._replace(value=-cs.EULER_GAMMA - res.value)


def _zeta2_third(conv: str) -> sr.SeriesResult:
    """zeta(2) as one third of EQ10's psi'(1/2) run (Ruben; Srivastava & Choi), each field
    divided by 3 as ``zeta2_series``'s engine divides: the same bits at the default control."""
    res = _trigamma_half(conv)
    return res._replace(value=res.value / 3.0, raw_partial_sum=res.raw_partial_sum / 3.0,
                        tail_estimate=res.tail_estimate / 3.0)


def _gamma_pole_route(route: str) -> lm.LimitResult:
    """EQ2's left side by the named route; any other route is a :class:`DomainError`."""
    if route == "pole":
        return lm.gamma_pole_limit()
    if route == "lhopital":
        return lm.gamma_derivative_at_1()
    raise DomainError(f"EQ2 route must be 'pole' or 'lhopital', got {route!r}")


@functools.cache
def builtin_registry() -> tuple[IdentitySpec, ...]:
    """The full identity registry, built once and cached.

    A side that only evaluates one layer routine at the grid point names it,
    ``_Routine(sr, "beta_series")``, and looks it up at each call, so a
    wrapper installed on the module, before or after the registry is cached,
    sees every call; within one :func:`run_suite` pass it sees each distinct
    call once.  Every other side is called as given.
    """
    return (
        IdentitySpec(
            id="SYM",
            description="B(u, v) = B(v, u)",
            anchor="symmetry of the Euler beta integral",
            grid=tuple(itertools.combinations((0.1, 0.5, 1.0, 2.5, 7.0), 2)),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_Routine(cs, "beta"),
            rhs=lambda u, v: cs.beta(v, u),
        ),
        IdentitySpec(
            id="RECUR",
            description="B(u, v+1) = v/(u+v) B(u, v)",
            anchor="beta recurrence via integration by parts",
            grid=tuple((u, v) for u in _U7 for v in _V3),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=lambda u, v: cs.beta(u, v + 1.0),
            # cs.beta goes first, so it rejects a point before u + v can be 0.
            rhs=lambda u, v: (lambda b: v / (u + v) * b)(cs.beta(u, v)),
        ),
        IdentitySpec(
            id="BU1",
            description="B(u, 1) = 1/u",
            anchor="beta at unit second argument",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=lambda u: cs.beta(u, 1.0),
            rhs=lambda u: 1.0 / u,
        ),
        IdentitySpec(
            id="POCH",
            description="rising(x, n) = Gamma(x+n)/Gamma(x)",
            anchor="Pochhammer symbol as a gamma ratio",
            grid=tuple((x, n) for x in (0.3, 1.5, 4.0) for n in range(0, 11)),
            tolerance=1e-11,
            tolerance_mode=RELATIVE,
            lhs=_Routine(cs, "rising"),
            rhs=lambda x, n: cs.gamma(x + n) / cs.gamma(x),
        ),
        IdentitySpec(
            id="EQ1",
            description="lim_{v->0} [B(u,v) - 1/v] = u dB/dv|_{v=1} + 1/u",
            anchor="finite part of the beta pole at v = 0",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-7,
            tolerance_mode=ABSOLUTE,
            lhs=_Routine(lm, "beta_pole_limit"),
            rhs=_log_moment_form,
        ),
        IdentitySpec(
            id="EQ2",
            description="lim_{v->0} [Gamma(v) - 1/v] = -gamma  (= Gamma'(1))",
            anchor="gamma-pole limit for the Euler-Mascheroni constant",
            grid=(("pole",), ("lhopital",)),
            tolerance=1e-7,
            tolerance_mode=ABSOLUTE,
            lhs=_gamma_pole_route,
            rhs=lambda route: -cs.euler_gamma(),
        ),
        IdentitySpec(
            id="EQ3",
            description="psi(u) = -gamma - [u dB/dv|_{v=1} + 1/u]",
            anchor="digamma from the beta derivative",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_Routine(cs, "digamma"),
            rhs=_eq3_rhs,
        ),
        IdentitySpec(
            id="EQ4",
            description="-u int_0^1 t^{u-1} log(1-t) dt = gamma + psi(u+1)",
            anchor="log-moment integral of the beta kernel",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_neg_n_log_moment,
            rhs=lambda u: cs.EULER_GAMMA + cs.digamma(u + 1.0),
        ),
        IdentitySpec(
            id="EQ4H",
            description="-n int_0^1 t^{n-1} log(1-t) dt = H_n",
            anchor="harmonic-number case of the log-moment integral",
            grid=tuple((n,) for n in range(1, 11)),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_neg_n_log_moment,
            rhs=_Routine(cs, "harmonic"),
        ),
        IdentitySpec(
            id="EQ4B",
            description="int_0^1 (1 - t^u)/(1 - t) dt = gamma + psi(u+1)",
            anchor="familiar integral for the digamma function",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_Routine(qd, "digamma_integral"),
            rhs=lambda u: cs.EULER_GAMMA + cs.digamma(u + 1.0),
        ),
        IdentitySpec(
            id="EQ5",
            description="B(u,v) = 1/v + sum_{n>=1} (1-u)_n / ((n+v) n!)",
            anchor="binomial-series expansion of the beta function",
            grid=tuple((u, v) for u in _U7 for v in _V3),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "beta_series"),
            rhs=_Routine(qd, "beta_integral"),
        ),
        IdentitySpec(
            id="EQ6",
            description="lim_{v->0} [B(u,v) - 1/v] = sum_{n>=1} (1-u)_n / (n n!)",
            anchor="termwise v->0 limit of the beta expansion",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "beta_limit_series"),
            rhs=_Routine(lm, "beta_pole_limit"),
        ),
        IdentitySpec(
            id="EQ7",
            description="psi(u) = -gamma - sum_{n>=1} (1-u)_n / (n n!)",
            anchor="series form of the digamma function",
            grid=tuple((u,) for u in _U7),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "digamma_series"),
            rhs=_Routine(cs, "digamma"),
        ),
        IdentitySpec(
            id="EQ7H",
            description="psi(1/2) = -gamma - 2 log 2",
            anchor="digamma at one half",
            grid=((0.5,),),
            tolerance=1e-9,
            tolerance_mode=ABSOLUTE,
            lhs=_Routine(cs, "digamma"),
            rhs=lambda u: -cs.EULER_GAMMA - 2.0 * math.log(2.0),
        ),
        IdentitySpec(
            id="LOG2",
            description="log 2 = sum_{n>=1} C(2n,n) / (n 2^{2n+1})",
            anchor="central-binomial series for log 2",
            grid=((),),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "log2_series"),
            rhs=lambda: math.log(2.0),
        ),
        IdentitySpec(
            id="EQ8",
            description="psi(x+a) - psi(a) = sum_{k>=1} (-1)^{k+1}/k falling(x,k)/rising(a,k)",
            anchor="Norlund's difference series for the digamma function",
            grid=tuple((float(m), 1.0) for m in range(1, 11)) + ((0.0, 2.5), (0.5, 0.5)),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "norlund_diff"),
            rhs=lambda x, a: cs.digamma(x + a) - cs.digamma(a),
        ),
        IdentitySpec(
            id="EQ9",
            description="psi'(u) = sum_{n>=1} (1-u)_n/(n n!) [psi(n+1-u) - psi(1-u)]",
            anchor="termwise derivative of the digamma series",
            grid=((0.25,), (0.5,), (0.75,)),
            tolerance=1e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_Routine(sr, "trigamma_series"),
            rhs=_Routine(cs, "trigamma"),
        ),
        IdentitySpec(
            id="EQ10",
            description="psi'(1/2) = sum_{n>=1} 2 C(2n,n)/(n 4^n) sum_{k=0}^{n-1} 1/(2k+1)",
            anchor="central-binomial series for psi'(1/2)",
            grid=((sr.CORRECTED,),),
            tolerance=5e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_trigamma_half,
            rhs=lambda conv: cs.trigamma(0.5),
        ),
        IdentitySpec(
            id="EQ11",
            description="zeta(2) = (1/3) sum_{n>=1} 2 C(2n,n)/(n 4^n) sum_{k=0}^{n-1} 1/(2k+1)",
            anchor="central-binomial series for zeta(2)",
            grid=((sr.CORRECTED,),),
            tolerance=2e-4,
            tolerance_mode=TAIL_AWARE,
            lhs=_zeta2_third,
            rhs=lambda conv: cs.riemann_zeta(2.0),
        ),
        IdentitySpec(
            id="DUP",
            description="Gamma(t) Gamma(t+1/2) = sqrt(pi) 2^{1-2t} Gamma(2t)",
            anchor="Legendre's duplication formula",
            grid=tuple((t,) for t in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0)),
            tolerance=1e-11,
            tolerance_mode=RELATIVE,
            lhs=lambda t: cs.gamma(t) * cs.gamma(t + 0.5),
            rhs=lambda t: math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * t) * cs.gamma(2.0 * t),
        ),
        IdentitySpec(
            id="GHALF",
            description="Gamma(n + 1/2) = sqrt(pi) (2n)! / (4^n n!)",
            anchor="half-integer gamma closed form",
            grid=tuple((n,) for n in range(1, 11)),
            tolerance=1e-12,
            tolerance_mode=RELATIVE,
            lhs=_Routine(cs, "gamma_half"),
            rhs=lambda n: cs.gamma(n + 0.5),
        ),
        IdentitySpec(
            id="BHALF",
            description="B(n, 1/2) = 4^n / (n C(2n,n))",
            anchor="half-integer beta closed form",
            grid=tuple((n,) for n in range(1, 11)),
            tolerance=1e-11,
            tolerance_mode=RELATIVE,
            lhs=_Routine(cs, "beta_half"),
            rhs=lambda n: cs.beta(n, 0.5),
        ),
        IdentitySpec(
            id="ZHALF",
            description="zeta(s, 1/2) = (2^s - 1) zeta(s)",
            anchor="Hurwitz zeta at a = 1/2",
            grid=tuple((float(s),) for s in (2, 3, 4, 6)),
            tolerance=1e-11,
            tolerance_mode=RELATIVE,
            lhs=lambda s: cs.hurwitz_zeta(s, 0.5),
            rhs=lambda s: (2.0**s - 1.0) * cs.riemann_zeta(s),
        ),
        IdentitySpec(
            id="PSIM",
            description="psi'(x) = (-1)^2 1! zeta(2, x), checked against a psi central difference",
            anchor="polygamma as a Hurwitz zeta value",
            grid=tuple((x,) for x in (0.5, 1.0, 2.0, 5.0)),
            tolerance=1e-6,
            tolerance_mode=ABSOLUTE,
            lhs=lambda x: cs.polygamma(1, x),
            rhs=lambda x: (
                (cs.digamma(x + _FD_STEP) - cs.digamma(x - _FD_STEP)) / (2.0 * _FD_STEP)
            ),
        ),
    )


# --- running --------------------------------------------------------------

_SKIP_ERRORS = (DomainError, OverflowRangeError, NonConvergenceError)


def _overridden(spec: IdentitySpec, grid=None, tolerance=None) -> IdentitySpec:
    """``spec`` with an override grid and tolerance, checked as :func:`run_identity` says."""
    if grid is not None:
        try:
            grid = tuple(tuple(point) for point in grid)
        except TypeError:
            raise DomainError(f"identity {spec.id!r} grid must be an iterable of points") from None
        arity = len(spec.grid[0])
        if any(len(point) != arity for point in grid):
            raise DomainError(f"identity {spec.id!r} grid points take {arity} parameter(s)")
        spec = spec._replace(grid=grid)
    return spec if tolerance is None else spec._replace(tolerance=tolerance)


def run_identity(
    spec: IdentitySpec,
    grid: Iterable[Iterable] | None = None,
    tolerance: float | None = None,
) -> list[CheckRecord]:
    """Evaluate one identity over its grid (or an override grid/tolerance).

    The overrides are checked as a registered spec is: an empty grid, a grid
    that is not an iterable of points of the registered arity, or a tolerance
    that is not a finite positive real raises :class:`DomainError`.
    Domain errors, overflow, and refinement-cap signals from either side
    yield a skipped record with the reason attached; they never propagate.
    A ``spec`` that is not an :class:`IdentitySpec` raises :class:`DomainError`.
    """
    if not isinstance(spec, IdentitySpec):
        raise DomainError(f"spec must be an IdentitySpec, got {spec!r}")
    spec = _overridden(spec, grid, tolerance)
    tol = float(spec.tolerance)
    records = []
    for params in spec.grid:
        try:
            lhs_value, lhs_diag = _route(spec.lhs, params)
            rhs_value, rhs_diag = _route(spec.rhs, params)
        except _SKIP_ERRORS as exc:
            records.append(CheckRecord(spec.id, params, reason=f"{type(exc).__name__}: {exc}"))
            continue
        diag = _merge_diag(lhs_diag, rhs_diag)
        abs_err = abs(lhs_value - rhs_value)
        scale = max(abs(lhs_value), abs(rhs_value))
        rel_err = abs_err / scale if scale > 0.0 else 0.0
        if spec.tolerance_mode == RELATIVE:
            effective = tol * scale
        elif spec.tolerance_mode == TAIL_AWARE:
            effective = tol + diag.get("tail_estimate", 0.0)
        else:
            effective = tol
        records.append(CheckRecord(spec.id, params, lhs_value, rhs_value, abs_err, rel_err,
                                   effective, abs_err <= effective, False, None, diag))
    return records


def _literal_observation(spec: IdentitySpec) -> Mapping:
    """EQ10 / EQ11 evaluated under the literal convention (inner k from 1)."""
    value, _ = _route(spec.lhs, (sr.LITERAL,))
    reference, _ = _route(spec.rhs, (sr.LITERAL,))
    return dict(zip(_INFO_KEYS, (spec.id, sr.LITERAL, value, reference, abs(value - reference))))


def run_suite(
    only: Iterable[str] | None = None,
    overrides: Mapping[str, Mapping] | None = None,
) -> SuiteReport:
    """Run selected identities (default: all) and collect a SuiteReport.

    ``only`` filters by identity id; an empty ``only`` raises
    :class:`DomainError`.  ``overrides`` may map an id to
    ``{"grid": ..., "tolerance": ...}`` keyword overrides for
    :func:`run_identity`; an id it names need not be selected.  Before any
    evaluation, an id in either that is not registered raises
    :class:`UnknownIdentityError`; ``only`` that is a string or not an iterable of
    strings, ``overrides`` that is not a mapping, and an override that is not a
    mapping, has a key other than ``grid`` and ``tolerance`` or fails
    :func:`run_identity`'s checks raise :class:`DomainError`.
    """
    registry = builtin_registry()
    known = [spec.id for spec in registry]
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, Mapping):
        raise DomainError(f"overrides must be a mapping of identity ids, got {overrides!r}")
    if isinstance(only, str) or not isinstance(only, (Iterable, type(None))):
        raise DomainError(f"only must be a collection of identity ids, got {only!r}")
    wanted = list(known if only is None else only)
    if not all(isinstance(i, str) for i in (*wanted, *overrides)):
        raise DomainError(f"identity ids must be strings, got {wanted!r} and {list(overrides)!r}")
    if not wanted:
        raise DomainError("only must name at least one identity id")
    missing = sorted(set(wanted).union(overrides) - set(known))
    if missing:
        raise UnknownIdentityError(
            f"unknown identity id(s): {', '.join(missing)}; "
            f"known ids: {', '.join(sorted(known))}"
        )
    for identity_id, kw in overrides.items():
        if not isinstance(kw, Mapping):
            raise DomainError(f"{identity_id} overrides must be a mapping, got {kw!r}")
        if not set(kw) <= {"grid", "tolerance"}:
            raise DomainError(f"{identity_id} overrides take grid and tolerance, got {sorted(kw)}")
    specs = [_overridden(spec, **overrides.get(spec.id, {})) for spec in registry]
    # One entry per requested id, in registry order.
    selected = [spec for spec in specs if spec.id in wanted]
    records: list[CheckRecord] = []
    informational: list[Mapping] = []
    token = _results.set({})  # each distinct routine call runs once; nothing outlives the pass
    try:
        for spec in selected:
            records.extend(run_identity(spec))
            if spec.id in ("EQ10", "EQ11"):
                informational.append(_literal_observation(spec))
    finally:
        _results.reset(token)
    records.sort(key=lambda r: r.identity_id)  # stable: grid order kept within an id
    informational.sort(key=lambda obs: obs["identity_id"])
    outcomes = [r.passed for r in records]  # None where a record is skipped
    counts = {"total": len(records), "passed": outcomes.count(True),
              "failed": outcomes.count(False), "skipped": outcomes.count(None)}
    return SuiteReport(records, counts, TOOL_VERSION, informational)


# --- rendering ------------------------------------------------------------

# CSV and table text of a scalar cell by the value's exact type, or else the first type
# it is an instance of: floats at 17 significant digits.
_TEXT: dict[type, Callable[[object], str]] = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: "{:.17g}".format,
    int: str,
    str: str,
    object: str,
}

# JSON string escapes: the quote, the backslash and U+0000-U+001F.
_JSON_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(c): f"\\u{c:04x}" for c in range(0x20)}}
)

# JSON text of a scalar cell where it is not the CSV text.
_JSON: dict[type, Callable[[object], str]] = {
    type(None): lambda value: "null",
    str: lambda value: '"' + value.translate(_JSON_ESCAPES) + '"',
}


def _texts(values: Iterable) -> tuple[list[str], list[str]]:
    """Each value's CSV and table text, and its JSON text: a params tuple's
    entries joined by ``;`` in the one and listed in the other."""
    texts, jsons = [], []
    for value in values:
        kind = type(value)
        if kind not in _TEXT:
            if isinstance(value, tuple):
                entry_texts, entry_jsons = _texts(value)
                texts.append(";".join(entry_texts))
                jsons.append("[" + ", ".join(entry_jsons) + "]")
                continue
            kind = next(k for k in _TEXT if isinstance(value, k))
        text = _TEXT[kind](value)
        texts.append(text)
        jsons.append(_JSON[kind](value) if kind in _JSON else text)
    return texts, jsons


def _cells(record: CheckRecord) -> tuple:
    """A record's column values, then its ``_DIAG_KEYS`` diagnostics."""
    return (*_column_values(record), *map(record.diagnostics.get, _DIAG_KEYS))


# One JSON record, a ``%`` template: every column, then the diagnostics as an object.
_JSON_RECORD = (
    "{" + ", ".join(f'"{name}": %s' for name, _ in _COLUMNS)
    + ', "diagnostics": {' + ", ".join(f'"{key}": %s' for key in _DIAG_KEYS) + "}}"
)
_JSON_INFO = "{" + ", ".join(f'"{key}": %s' for key in _INFO_KEYS) + "}"


def _json_array(key: str, items: list[str], end: str) -> list[str]:
    """Lines of the top-level array ``key``: one item per line, or ``[]`` if empty."""
    if not items:
        return [f'  "{key}": []{end}']
    return [f'  "{key}": [', "    " + ",\n    ".join(items), "  ]" + end]


def _render_json(report: SuiteReport) -> bytes:
    records, info = report._cell_texts
    lines = [
        "{",
        f'  "tool_version": {_texts([report.tool_version])[1][0]},',
        '  "counts": {"total": %(total)s, "passed": %(passed)s, "failed": %(failed)s, '
        '"skipped": %(skipped)s},' % report.counts,
    ]
    lines += _json_array("records", [_JSON_RECORD % tuple(jsons) for _, jsons in records], ",")
    lines += _json_array("informational", [_JSON_INFO % tuple(jsons) for _, jsons in info], "")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv_line(texts: list[str]) -> str:
    """``texts`` as one CSV line, a cell holding a comma, a quote, CR or LF quoted with
    its quotes doubled: one rule on every Python (``csv.writer`` quotes CR from 3.13)."""
    line = ",".join(texts)
    if line.count(",") == len(texts) - 1 and '"' not in line and line.isprintable():
        return line
    return ",".join('"' + t.replace('"', '""') + '"' if any(c in t for c in ',"\r\n') else t
                    for t in texts)


def _render_csv(report: SuiteReport) -> bytes:
    lines = [_csv_line([name for name, _ in _COLUMNS] + list(_DIAG_KEYS))]
    lines += [_csv_line(texts) for texts, _ in report._cell_texts[0]]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_table(report: SuiteReport) -> bytes:
    records, info = report._cell_texts
    shown = [
        i for i, (_, attr) in enumerate(_COLUMNS)
        if attr in ("params", "lhs_value", "rhs_value", "abs_err", "effective_tol")
    ]
    shown_texts = operator.itemgetter(*shown)
    headers = ("identity",) + tuple(_COLUMNS[i][0] for i in shown) + ("status",)
    rows = []
    for r, (texts, _) in zip(report.records, records):
        status = "skip" if r.skipped else "pass" if r.passed else "FAIL"
        rows.append((r.identity_id, *shown_texts(texts), status))
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    line = "  ".join(f"%-{w}s" for w in widths)  # each cell left-justified to its column
    out = [(line % headers).rstrip(), "  ".join("-" * w for w in widths)]
    out += [(line % row).rstrip() for row in rows]
    c = report.counts
    out.append("")
    out.append(
        f"total {c['total']}  passed {c['passed']}  failed {c['failed']}  "
        f"skipped {c['skipped']}  (tool {report.tool_version})"
    )
    for obs, (texts, _) in zip(report.informational, info):
        value, reference, difference = texts[2:]
        out.append(
            f"info: {obs['identity_id']} {obs['convention']} convention -> "
            f"value {value}, reference {reference}, |difference| {difference}"
        )
    return ("\n".join(out) + "\n").encode("utf-8")


def render_report(report: SuiteReport, format: str = "table") -> bytes:
    """Serialize a report as UTF-8 bytes in ``table``, ``json``, or ``csv`` form.

    All three carry identical record data (floats always at 17 significant
    digits), formatted at the report's first render and kept with it; a report
    cannot change, so every render is byte-identical.  A ``report``
    that is not a :class:`SuiteReport` raises :class:`DomainError`.
    """
    if not isinstance(report, SuiteReport):
        raise DomainError(f"report must be a SuiteReport, got {report!r}")
    if format == "json":
        return _render_json(report)
    if format == "csv":
        return _render_csv(report)
    if format == "table":
        return _render_table(report)
    raise DomainError(f"format must be one of table, json, csv; got {format!r}")
