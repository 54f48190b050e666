"""Exception types shared across the package."""


class CauchyKLError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CauchyKLError, ValueError):
    """Inputs violate a documented precondition (domain, sign, finiteness)."""


class SingularPointError(CauchyKLError, ArithmeticError):
    """An auxiliary closed form is evaluated on its singular set.

    Raised by the derivative dA/dd and the primitive B at d = f, e = 0,
    where their common denominator (d - f)^2 + e^2 vanishes. The integral
    A itself is perfectly regular there; use the analytic derivative of
    pi*log(d + f + sqrt(4*d*f - e^2)) instead.
    """


class IntegrandEvaluationError(CauchyKLError, RuntimeError):
    """The integrand returned a non-finite value at a quadrature node.

    For the integrals over a pair of densities or quadratics, the abscissa
    is the frame variable t = (x - l1)/s1 (or (x - v1)/w1), not x.
    """

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(
            f"integrand returned non-finite value {value!r} at x = {abscissa!r}"
        )
