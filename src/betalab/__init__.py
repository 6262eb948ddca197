"""betalab: a laboratory for the Euler beta function and its relatives.

The package evaluates the classical special functions (log-gamma, gamma,
beta, polygamma, Hurwitz zeta) from first principles, sums the slowly
convergent series that tie the beta function to Euler's constant and the
digamma function, integrates the underlying kernels with tanh-sinh
quadrature, extrapolates the v -> 0 pole limits by Richardson's scheme, and
cross-checks everything through a registry of verifiable identities with
deterministic table / JSON / CSV reports.

Everything is pure Python on IEEE doubles: no third-party dependencies, no
hidden state, and bit-for-bit reproducible output.

The root republishes each module's ``__all__``, the one list of its public
names, lazily (PEP 562): a submodule loads when it or one of its names is first used.
"""

from __future__ import annotations

# The modules whose __all__ the root republishes, in order.
_MODULES = ("errors", "core_special", "series", "quadrature", "limits", "verify")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":  # straight to the submodule, loading no other
        __import__(f"{__name__}.{name}")  # which -X importtime sees, unlike import_module
        return globals()[name]
    if name == "__version__":
        value = __getattr__("verify").TOOL_VERSION
    elif name == "__all__":
        value = ["__version__"] + [n for m in _MODULES for n in __getattr__(m).__all__]
    else:  # a public name: load the modules in order until one lists it
        owners = (m for m in map(__getattr__, _MODULES) if name in m.__all__)
        owner = None if name.startswith("_") else next(owners, None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_MODULES, "cli"})
