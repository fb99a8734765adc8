"""Special functions for p-values (no scipy available): regularized
incomplete gamma / beta, chi-square / F / t / normal survival functions.

Implementations follow the classic series / continued-fraction algorithms
(Numerical Recipes §6.2-6.4; Abramowitz & Stegun), accurate to ~1e-10 —
far tighter than the tolerances documented for the stat-test kernels.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 3e-14
_FPMIN = 1e-300
_ITMAX = 500


def _gser(a: float, x: float) -> float:
    ap = a
    summ = 1.0 / a
    delt = summ
    for _ in range(_ITMAX):
        ap += 1.0
        delt *= x / ap
        summ += delt
        if abs(delt) < abs(summ) * _EPS:
            break
    return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gcf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammainc_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if x < 0 or a <= 0:
        return np.nan
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gser(a, x)
    return 1.0 - _gcf(a, x)


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    return 1.0 - gammainc_lower(a, x)


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function."""
    if not np.isfinite(x):
        return np.nan
    if x <= 0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    bt = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_cdf_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized standard normal CDF via the Abramowitz & Stegun 7.1.26
    erf approximation (|err| < 1.5e-7) — numpy has no erf and per-element
    math.erfc loops dominate the Lilliefors null simulation."""
    z = np.asarray(x, dtype=np.float64) / np.sqrt(2.0)
    sign = np.sign(z)
    a = np.abs(z)
    t = 1.0 / (1.0 + 0.3275911 * a)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))))
    erf = sign * (1.0 - poly * np.exp(-a * a))
    return 0.5 * (1.0 + erf)
