"""Special-function kernel.

The transcendental functions behind the closed-form moments and overlaps in
`coherent`: the entire kernel 0F1(2k; w) (`g_k`, and `log_g_k` in log domain
for real w) and the Bessel ratio I_{2k}(2x) / I_{2k-1}(2x) (`rho_k`, with its
small- and large-x forms).  `check_k` is the one test of the index k,
`check_n` that of a quantum number and `check_finite` that of a complex
argument.

Every term-ratio series, `g_k` here and the cross kernels C_k and D_k in
`coherent`, is summed by `ratio_series`: Kahan-compensated, stopped when a
term falls below 1e-16 of the partial sum (or after 10^4 terms).  The
reported error estimate is the magnitude of the last term summed plus
2^-52 sum_n n |t_n|, n counting from 1: the first part bounds the truncation,
the second the rounding, which dominates wherever the terms cancel (negative
or complex w).  Term n is built by n - 1 rounded recurrence steps, so its
rounding grows with n.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 10_000
_STOP_FLOOR = SERIES_RTOL * 1e-300
LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EvalResult:
    """Value plus an absolute error estimate and the number of terms used."""

    value: complex
    abs_error_estimate: float
    terms_used: int


class DomainError(ValueError):
    """Argument outside the range the evaluation branch supports."""


def check_k(k: float) -> None:
    """Raise DomainError unless the index k is positive and finite."""
    if not (k > 0 and math.isfinite(k)):
        raise DomainError(f"k must be positive and finite, not {k!r}")


def check_n(n: int) -> None:
    """Raise DomainError unless the quantum number n is a non-negative integer."""
    if not (hasattr(type(n), "__index__") and n >= 0):
        raise DomainError(f"n must be a non-negative integer, not {n!r}")


def check_finite(name: str, value: complex) -> None:
    """Raise DomainError naming the argument `name` unless `value` is finite."""
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, not {value!r}")


def ratio_series(ratio) -> EvalResult:
    """sum_n t_n with t_0 = 1 and t_{n+1} = t_n ratio(n), Kahan-compensated
    and stopped by the module-wide rule, with its error estimate and the
    number of terms summed.

    Raises OverflowError once the partial sum is not finite; the message
    names the function that defined `ratio`.
    """
    total = comp = 0.0 + 0.0j
    t = 1.0 + 0.0j
    rounding = 0.0  # 2^-52 sum_n n |t_n|, scaled per term so it cannot overflow first
    for n in range(1, SERIES_MAX_TERMS + 1):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if not cmath.isfinite(total):
            caller = ratio.__qualname__.partition(".<locals>")[0]
            raise OverflowError(f"{caller} series overflows: partial sum not finite at term {n}")
        last = abs(t)
        rounding += 2.0 ** -52 * n * last
        # last <= SERIES_RTOL max(|total|, 1e-300), without a max() call per term
        if (last <= SERIES_RTOL * abs(total) or last <= _STOP_FLOOR) and n >= 2:
            break
        t *= ratio(n - 1)
    return EvalResult(total, last + rounding, n)


def g_k(k: float, w) -> EvalResult:
    """The entire kernel 0F1(2k; w) = sum_n w^n / ((2k)_n n!), one
    `ratio_series`; real w gives a real value.

    For real w >= 0 this equals Gamma(2k) w^{(1-2k)/2} I_{2k-1}(2 sqrt(w)); the
    terms are positive, and w of any size is summed until the value itself
    passes the largest double, which raises OverflowError.  Elsewhere the
    terms cancel while their peak grows like e^{2 sqrt|w|}, which overflows
    long before the value does, so non-real or negative w with
    2 sqrt|w| > 600 raises OverflowError.
    """
    check_k(k)
    w = complex(w)
    check_finite("w", w)
    if 2.0 * math.sqrt(abs(w)) > 600.0 and not (w.imag == 0.0 and w.real >= 0.0):
        raise OverflowError("g_k overflows for non-real or negative w with |w| this large")
    res = ratio_series(lambda n: w / ((2.0 * k + n) * (n + 1.0)))
    return replace(res, value=res.value.real) if w.imag == 0.0 else res


def log_g_k(k: float, w: float) -> float:
    """log 0F1(2k; w) for real w >= 0: the series summed in log domain,
    safe far beyond floating overflow and for large k."""
    if not 0.0 <= w < math.inf:
        raise DomainError(f"log_g_k requires a finite w >= 0, not {w!r}")
    check_k(k)
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
    check_k(k)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"rho_k requires a finite x >= 0, not {x!r}")
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


def rho_k_asymptotic(k: float, x: float) -> float:
    """Large-x expansion 1 - (4k-1)/(4x) + (16(k^2-k)+3)/(32 x^2)."""
    check_k(k)
    return 1.0 - (4.0 * k - 1.0) / (4.0 * x) + (16.0 * (k * k - k) + 3.0) / (32.0 * x * x)


def rho_k_small_x(k: float, x: float) -> float:
    """Small-x behaviour (x/2k)(1 - x^2/(2k(2k+1)))."""
    check_k(k)
    return x / (2.0 * k) * (1.0 - x * x / (2.0 * k * (2.0 * k + 1.0)))
