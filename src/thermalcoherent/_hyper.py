"""Hyperbolic quotients that are singular or cancellation-prone at zero.

All maps between the three state conventions involve the quotients
sinh(t)/t, (cosh(t) - 1)/t and (sinh(t) - t)/t**2.  Each is evaluated
in a form that keeps a few ulps of relative accuracy for every t.
"""

import math

SERIES_CUTOFF = 1e-4
# (sinh(t) - t)/t**2 = sum_{k>=1} t**(2k-1)/(2k+1)!; ten terms reach
# rounding for |t| < 2, where the direct form has also stopped cancelling
_SINHM_SWITCH = 2.0
_SINHM_COEFFS = tuple(1.0 / math.factorial(2 * k + 1) for k in range(10, 0, -1))


def sinhc(t: float) -> float:
    """sinh(t)/t, continuous at t = 0."""
    if abs(t) < SERIES_CUTOFF:
        t2 = t * t
        return 1.0 + t2 / 6.0 + t2 * t2 / 120.0 + t2 * t2 * t2 / 5040.0
    return math.sinh(t) / t


def coshm1_over(t: float) -> float:
    """(cosh(t) - 1)/t, continuous at t = 0.

    Written as 2 sinh(t/2)**2 / t, which has no subtraction at all.
    """
    if t == 0.0:
        return 0.0
    return 2.0 * math.sinh(0.5 * t) ** 2 / t


def sinhm_over_sq(t: float) -> float:
    """(sinh(t) - t)/t**2, continuous at t = 0.

    Equal to (exp(t) - 2*t - exp(-t)) / (2*t**2); this is the
    coefficient of the accumulated commutator phase in the sliced
    product of squeeze and displacement factors.
    """
    if abs(t) < _SINHM_SWITCH:
        t2 = t * t
        acc = 0.0
        for c in _SINHM_COEFFS:
            acc = acc * t2 + c
        return t * acc
    return (math.sinh(t) - t) / (t * t)
