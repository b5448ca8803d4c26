"""Special-function kernel.

The transcendental functions behind the closed-form moments and overlaps in
`coherent`: the entire kernel 0F1(2k; w) (`g_k`, and `log_g_k` for large real
w) and the Bessel ratio I_{2k}(2x) / I_{2k-1}(2x) (`rho_k`, with its small-
and large-x forms).

Series are summed with Kahan compensation and stop when a term falls below
1e-16 of the partial sum (or after 10^4 terms).  The reported error estimate
is the magnitude of the last term summed plus 2^-52 sum_n n |t_n|, n counting
from 1: the first part bounds the truncation, the second the rounding, which
dominates wherever the terms cancel (negative or complex w).  Term n is built
by n - 1 rounded recurrence steps, so its rounding grows with n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 10_000
LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EvalResult:
    """Value plus an absolute error estimate and the number of terms used."""

    value: complex
    abs_error_estimate: float
    terms_used: int

    @property
    def real(self) -> float:
        return float(np.real(self.value))


class DomainError(ValueError):
    """Argument outside the range the evaluation branch supports."""


def _kahan_sum(terms):
    """Kahan-compensated sum of a term iterator.

    The iterator yields successive series terms; summation stops by the
    module-wide rule.  Returns (value, error_estimate, n_terms), the estimate
    being the last term's magnitude plus 2^-52 sum_n n |t_n|.
    """
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    n = 0
    last = 0.0
    mass = 0.0
    for t in terms:
        n += 1
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        last = abs(t)
        mass += n * last
        if n >= 2 and last <= SERIES_RTOL * max(abs(total), 1e-300):
            break
        if n >= SERIES_MAX_TERMS:
            break
    return total, last + 2.0 ** -52 * mass, n


def g_k(k: float, w) -> EvalResult:
    """The entire kernel 0F1(2k; w) = sum_n w^n / ((2k)_n n!).

    For real w >= 0 this equals Gamma(2k) w^{(1-2k)/2} I_{2k-1}(2 sqrt(w)).
    Complex w is evaluated by the same series; arguments with
    2 sqrt|w| > 600 overflow the direct series and raise OverflowError.
    Real w >= 0 there is exp(log_g_k), which raises OverflowError once the
    value passes the largest double.
    """
    if not (k > 0 and math.isfinite(k)):
        raise DomainError("g_k requires a finite k > 0")
    w = complex(w)
    if 2.0 * math.sqrt(abs(w)) > 600.0:
        if abs(w.imag) == 0.0 and w.real >= 0.0:
            log_g = log_g_k(k, w.real)
            if log_g <= LOG_DBL_MAX:
                # log_g carries a few ulp of itself; exp makes that relative
                value = math.exp(log_g)
                return EvalResult(value, 32.0 * 2.0 ** -52 * log_g * value, 1)
        raise OverflowError("g_k overflows for |w| this large")

    def terms():
        t = 1.0 + 0.0j
        n = 0
        while True:
            yield t
            t *= w / ((2.0 * k + n) * (n + 1.0))
            n += 1

    val, err, n = _kahan_sum(terms())
    if w.imag == 0.0:
        return EvalResult(val.real, err, n)
    return EvalResult(val, err, n)


def log_g_k(k: float, w: float) -> float:
    """log 0F1(2k; w) for real w >= 0: the series summed in log domain,
    safe far beyond floating overflow and for large k."""
    if w < 0:
        raise DomainError("log_g_k requires w >= 0")
    if not (k > 0 and math.isfinite(k)):
        raise DomainError("log_g_k requires a finite k > 0")
    if w == 0.0:
        return 0.0
    # peak term index, then accumulate relative to the running maximum
    logs = []
    lt = 0.0
    n = 0
    lw = math.log(w)
    peak = 0.0
    while True:
        logs.append(lt)
        peak = max(peak, lt)
        step = lw - math.log((2.0 * k + n) * (n + 1.0))
        if step < 0 and lt - peak < -45.0:
            break
        lt += step
        n += 1
        if n > SERIES_MAX_TERMS:
            break
    return peak + math.log(math.fsum(math.exp(v - peak) for v in logs))


def rho_k(k: float, x: float) -> float:
    """Bessel ratio I_{2k}(2x) / I_{2k-1}(2x), evaluated by the standard
    continued fraction for ratios of modified Bessel functions.

    Strictly below 1 for all finite x when k >= 1/4; for k in (0, 1/4) no
    bound is asserted and the value may exceed 1.
    """
    if not (k > 0 and math.isfinite(k)):
        raise DomainError("rho_k requires a finite k > 0")
    if x < 0:
        raise DomainError("rho_k requires x >= 0")
    if x == 0.0:
        return 0.0
    y = 2.0 * x
    nu = 2.0 * k - 1.0
    depth = max(40, int(1.5 * y) + 40)
    r = 0.0
    for m in range(depth, 0, -1):
        r = 1.0 / (2.0 * (nu + m) / y + r)
    if k >= 0.25 and r > 1.0:
        # the bound rho < 1 holds for k >= 1/4; anything above is rounding
        # noise from the continued fraction once 1 - rho underflows
        r = 1.0
    return r


def rho_k_asymptotic(k: float, x: float, order: int = 2) -> float:
    """Large-x expansion 1 - (4k-1)/(4x) + (16(k^2-k)+3)/(32 x^2)."""
    out = 1.0
    if order >= 1:
        out -= (4.0 * k - 1.0) / (4.0 * x)
    if order >= 2:
        out += (16.0 * (k * k - k) + 3.0) / (32.0 * x * x)
    return out


def rho_k_small_x(k: float, x: float) -> float:
    """Small-x behaviour (x/2k)(1 - x^2/(2k(2k+1)))."""
    return x / (2.0 * k) * (1.0 - x * x / (2.0 * k * (2.0 * k + 1.0)))
