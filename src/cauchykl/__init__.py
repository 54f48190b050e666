"""Closed-form information divergences between Cauchy distributions.

The library computes the Kullback-Leibler divergence, cross-entropy,
differential entropy and the underlying parametric log-quadratic
integral A in closed form (`cauchykl.core`), validates every formula
against an independent adaptive-quadrature and Monte-Carlo oracle
(`cauchykl.oracle`), and machine-checks the creative-telescoping
derivation behind the closed form in exact rational arithmetic
(`cauchykl.certificate`). A batch CLI fronts all of it
(`cauchykl.cli`, installed as the `cauchykl` command).
"""

from . import core
from .core import *  # noqa: F403 -- the closed forms, as listed in core.__all__
from .errors import (
    CauchyKLError,
    IntegrandEvaluationError,
    ParameterError,
    SingularPointError,
)
from .jets import Jet
from .oracle import (
    DEFAULT_CONFIG,
    MonteCarloResult,
    QuadratureConfig,
    QuadratureResult,
    cross_entropy_numeric,
    f_divergence_numeric,
    integral_a_numeric,
    integrate_real_line,
    kl_monte_carlo,
    kl_numeric,
)

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    "CauchyKLError",
    "DEFAULT_CONFIG",
    "IntegrandEvaluationError",
    "Jet",
    "MonteCarloResult",
    "ParameterError",
    "QuadratureConfig",
    "QuadratureResult",
    "SingularPointError",
    "cross_entropy_numeric",
    "f_divergence_numeric",
    "integral_a_numeric",
    "integrate_real_line",
    "kl_monte_carlo",
    "kl_numeric",
    "__version__",
]
