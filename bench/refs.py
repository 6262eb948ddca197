"""Reference values at 40 significant digits from mpmath.

Run as a process of its own, before any timing: it reads a JSON list of
``[kind, args]`` requests on stdin and writes ``{"mpmath": version,
"values": [decimal strings]}`` on stdout.  Keeping mpmath out of the
measured process keeps it out of that process's peak RSS.  Exits with
status 2 if mpmath is missing, so that no run ever reports an accuracy it
did not check.
"""

from __future__ import annotations

import json
import sys

DIGITS = 40

try:
    import mpmath as mp
except ImportError:
    mp = None


def _refs():
    f = mp.mpf
    return {
        "lgamma": lambda x: mp.loggamma(f(x)),
        "gamma": lambda x: mp.gamma(f(x)),
        "beta": lambda u, v: mp.beta(f(u), f(v)),
        "digamma": lambda x: mp.psi(0, f(x)),
        "trigamma": lambda x: mp.psi(1, f(x)),
        "polygamma": lambda m, x: mp.psi(m, f(x)),
        "hurwitz_zeta": lambda s, a: mp.zeta(f(s), f(a)),
        "rising": lambda x, n: mp.rf(f(x), n),
        "central_binom": lambda n: mp.binomial(2 * n, n),
        # int_0^1 t^(u-1) log(1-t) dt
        "log_moment": lambda u: -(mp.psi(0, f(u) + 1) + mp.euler) / f(u),
        # int_0^1 (1 - t^u)/(1 - t) dt
        "digamma_integral": lambda u: mp.euler + mp.psi(0, f(u) + 1),
        # int_0^1 t^(u-1) e^-t dt
        "lower_gamma_1": lambda u: mp.gammainc(f(u), 0, 1),
        # lim_{v->0} B(u, v) - 1/v
        "beta_pole": lambda u: -(mp.euler + mp.psi(0, f(u))),
        "norlund": lambda x, a: mp.psi(0, f(x) + f(a)) - mp.psi(0, f(a)),
        "log2": lambda: mp.log(2),
        "trigamma_half": lambda *_: mp.pi**2 / 2,
        "zeta2": lambda *_: mp.pi**2 / 6,
        "neg_euler": lambda: -mp.euler,
        "one": lambda: mp.mpf(1),
    }


def compute(requests: list) -> list:
    if mp is None:
        raise RuntimeError("mpmath is required for reference values")
    table = _refs()
    with mp.workdps(DIGITS + 10):
        return [mp.nstr(table[kind](*args), DIGITS, strip_zeros=False) for kind, args in requests]


def main() -> int:
    if mp is None:
        print("refs: mpmath is not installed; no reference values, no accuracy check",
              file=sys.stderr)
        return 2
    json.dump({"mpmath": mp.__version__, "values": compute(json.load(sys.stdin))}, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
