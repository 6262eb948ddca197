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
"""

from __future__ import annotations

# The top level republishes each module's __all__, the one list of its public names.
from . import core_special, errors, limits, quadrature, series, verify
from .core_special import *
from .errors import *
from .limits import *
from .quadrature import *
from .series import *
from .verify import *

__version__ = verify.TOOL_VERSION

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += core_special.__all__
__all__ += series.__all__
__all__ += quadrature.__all__
__all__ += limits.__all__
__all__ += verify.__all__
