"""Special-function kernel: the entire kernel 0F1(2k; w) (`g_k`, and
`log_g_k` in log domain for real w), every family's number distribution and
the Bessel ratio rho_k behind `coherent`, and the checks of the index k, a
quantum number and a complex argument.  numpy is the only third-party import.

A family ("bg", "perelomov" or "sg") is a table step, a normalizer and a mean:
the unnormalized `log_weight` = n log r2 - T[n] at r2 = |parameter|^2, T a
cached, read-only table (`weight_table`) of compensated sums of the steps;
`log_norm`, the only place a normalizer is written; and the mean that sizes
the one `distribution`, built in one buffer from the table's prefix T[:N],
its window being n = 0 ... N - 1.  Every moment sum, rho_k's among them, runs
over it, not over a difference of nearly equal closed forms.  One gate checks
the family API's arguments (DomainError).  No table, window or series passes
SERIES_MAX_TERMS: BG stops at x = sqrt(r2) ~ 1.94e5, as `log_g_k` does.

One engine, `ratio_series`, sums every term-ratio series: `g_k` and
`log_g_k` here, C_k and D_k in `coherent`.  It is Kahan-compensated, stops
when a term falls below 1e-16 of the partial sum and raises DomainError if
SERIES_MAX_TERMS terms do not get there.  Past 2^512 the partial sum is
divided by 2^512, exactly, and the result counts those bits in `scale`, so a
positive series sums far beyond overflow.  The error estimate is the last
term plus 2^-52 sum_n n |t_n|, n from 1: truncation plus the rounding of the
n - 1 recurrence steps behind term n, which dominates where terms cancel.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

SERIES_RTOL = 1e-16
SERIES_MAX_TERMS = 200_000
_STOP_FLOOR = SERIES_RTOL * 1e-300
_RESCALE_AT = 2.0 ** 512
LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class EvalResult:
    """Value plus an absolute error estimate and the number of terms used;
    value and estimate are in units of 2^scale."""

    value: complex
    abs_error_estimate: float
    terms_used: int
    scale: int = 0


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
    """sum_n t_n with t_0 = 1 and t_{n+1} = t_n ratio(n), its error estimate,
    the terms summed and their scale; a real ratio keeps the sum real.
    OverflowError (partial sum not finite) and DomainError (term cap) name
    the function that defined `ratio`."""
    caller = ratio.__qualname__.partition(".<locals>")[0]
    total = comp = rounding = 0.0  # rounding: 2^-52 sum_n n |t_n|
    t, scale = 1.0, 0
    for n in range(1, SERIES_MAX_TERMS + 1):
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        mod = abs(total)
        if not mod <= _RESCALE_AT:
            if not mod < math.inf:
                raise OverflowError(f"{caller} series overflows: partial sum not finite at term {n}")
            total, comp, t, rounding, mod = (v / _RESCALE_AT for v in (total, comp, t, rounding, mod))
            scale += 512
        last = abs(t)
        rounding += 2.0 ** -52 * n * last
        # last <= SERIES_RTOL max(|total|, 1e-300), without a max() call per term
        if (last <= SERIES_RTOL * mod or last <= _STOP_FLOOR) and n >= 2:
            return EvalResult(total, last + rounding, n, scale)
        t *= ratio(n - 1)
    raise DomainError(f"{caller} series does not converge within {SERIES_MAX_TERMS} terms")


def unscaled(res: EvalResult, name: str) -> EvalResult:
    """`res` times 2^scale, exactly; OverflowError naming `name` once the value,
    its estimate or a partial sum (scale >= 1024) passes the largest double."""
    f = 2.0 ** res.scale if res.scale < 1024 else math.inf  # a power of two: exact
    value, error = res.value * f, res.abs_error_estimate * f
    if not (cmath.isfinite(value) and error < math.inf):
        raise OverflowError(f"{name} overflows: the sum passes the largest double")
    return EvalResult(value, error, res.terms_used)


def g_k(k: float, w) -> EvalResult:
    """The entire kernel 0F1(2k; w) = sum_n w^n / ((2k)_n n!), one
    `ratio_series`; real w gives a real value.

    For real w >= 0 this equals Gamma(2k) w^{(1-2k)/2} I_{2k-1}(2 sqrt(w)); the
    terms are positive and summed in full, and a value past the largest double
    raises OverflowError (w past about 3.6e10 meets the term cap first,
    DomainError).  Elsewhere the terms cancel while their peak grows like
    e^{2 sqrt|w|}, which overflows long before the value does, so non-real or
    negative w with 2 sqrt|w| > 600 raises OverflowError.
    """
    check_k(k)
    w = complex(w)
    check_finite("w", w)
    if 2.0 * math.sqrt(abs(w)) > 600.0 and not (w.imag == 0.0 and w.real >= 0.0):
        raise OverflowError("g_k overflows for non-real or negative w with |w| this large")
    x = w.real if w.imag == 0.0 else w
    return unscaled(ratio_series(lambda n: x / ((2.0 * k + n) * (n + 1.0))), "g_k")


def log_g_k(k: float, w: float) -> float:
    """log 0F1(2k; w) for finite real w >= 0 up to about 3.6e10 (beyond, the
    term cap raises DomainError): `g_k`'s series, log value + scale ln 2.  Its
    error is absolute, about 1e-16, so relative to a log near 0 it grows as w
    falls: log_g_k(50, 1e-6) is 1.1e-8 off."""
    if not 0.0 <= w < math.inf:
        raise DomainError(f"log_g_k requires a finite w >= 0, not {w!r}")
    check_k(k)
    res = ratio_series(lambda n: w / ((2.0 * k + n) * (n + 1.0)))
    return math.log(res.value) + res.scale * math.log(2.0)


_TABLE_START = 64


# family: (table step T[j+1] - T[j] at a = 2k, log normalizer and mean at r2, "bg"'s within
# about k); log_g_k is looked up at call time, so a wrapper on the module global sees every call
_FAMILIES = {
    "bg": (lambda a, j: np.log(a + j) + np.log(j + 1.0), lambda k, r2: log_g_k(k, r2),
           lambda k, r2: math.sqrt(r2)),
    "perelomov": (lambda a, j: -np.log1p((a - 1.0) / (j + 1.0)), lambda k, r2: -2.0 * k * math.log1p(-r2),
                  lambda k, r2: 2.0 * k * r2 / (1.0 - r2)),
    "sg": (lambda a, j: np.log(j + 1.0), lambda k, r2: r2, lambda k, r2: r2),
}
# e^{-step(inf)}, the same at every a: `ratio_limit` is r2 times it
_LIMITS = {name: math.exp(-entry[0](1.0, math.inf)) for name, entry in _FAMILIES.items()}


def _family(family: str, k: float = 1.0, r2: float = 0.0) -> tuple:
    """(step, log normalizer, mean) of `family`, after the one check of the family API's
    arguments (the defaults pass): DomainError for any other name, for k not positive and
    finite, for r2 not >= 0 and where the weights' sum diverges (r2 = inf or ratio limit >= 1)."""
    if not (isinstance(family, str) and family in _FAMILIES):
        raise DomainError(f"family must be one of {', '.join(_FAMILIES)}, not {family!r}")
    check_k(k)
    if not r2 >= 0.0:
        raise DomainError(f"r2 = |parameter|^2 must be >= 0, not {r2!r}")
    if not (r2 < math.inf and r2 * _LIMITS[family] < 1.0):
        raise DomainError(f"the {family} weights diverge at r2 = |parameter|^2 = {r2!r}")
    return _FAMILIES[family]


@functools.lru_cache(maxsize=32)
def _table_slot(family: str, a: float | None) -> list:
    """A one-element list holding the (family, a) table, which grows in place;
    the 32 most recently used are kept."""
    return [np.empty(0)]


def _prefix_sums(steps: np.ndarray) -> np.ndarray:
    """0 followed by the Kahan-compensated partial sums of `steps`."""
    out = [0.0]
    total = comp = 0.0
    for x in steps.tolist():
        y = x - comp
        s = total + y
        comp = (s - total) - y
        total = s
        out.append(total)
    return np.array(out)


def weight_table(family: str, a: float | None, size: int) -> np.ndarray:
    """The cached, read-only table T of a family's weight, at least `size`
    entries long: T[m] = log (a)_m + log m! ("bg"), log m! - log (a)_m
    ("perelomov") or log m! ("sg", a unused), the compensated sum of the
    family's steps T[j+1] - T[j], j < m: within about half an ulp, where a
    difference of log Gamma values is up to 2e-11 off for m < 8192.  It grows
    by doubling from 64 entries up to SERIES_MAX_TERMS, filled anew at each
    size so that no entry depends on the order of calls; DomainError beyond and,
    before any slot is made, for an `a` neither None nor positive and finite."""
    step = _family(family)[0]
    if not (a is None or 0.0 < a < math.inf):
        raise DomainError(f"a = 2k must be positive and finite, not {a!r}")
    slot = _table_slot(family, a)
    if len(slot[0]) < size:
        if size > SERIES_MAX_TERMS:
            raise DomainError(f"the {family} weight table cannot pass {SERIES_MAX_TERMS} terms")
        new = max(len(slot[0]), _TABLE_START)
        while new < size:
            new *= 2
        slot[0] = _prefix_sums(step(a, np.arange(min(new, SERIES_MAX_TERMS) - 1, dtype=float)))
        slot[0].flags.writeable = False
    return slot[0]


def log_weight(family: str, k: float, r2: float, n) -> np.ndarray:
    """log r2^n e^{-T[n]}, the unnormalized weight at |parameter|^2 = r2 and
    integers 0 <= n < SERIES_MAX_TERMS (all on n = 0 at r2 = 0), T the family's
    `weight_table`: r2^n / ((2k)_n n!) ("bg"), (2k)_n r2^n / n! ("perelomov")
    or r2^n / n! ("sg"); exp(log_weight - `log_norm`) is the number distribution."""
    _family(family, k, r2)
    n = np.asarray(n, dtype=np.intp)
    if r2 == 0.0:
        return np.where(n == 0, 0.0, -np.inf)
    a = None if family == "sg" else 2.0 * k  # the SG table has no 2k
    try:
        t = _table_slot(family, a)[0][n]
    except IndexError:
        t = weight_table(family, a, int(n.max()) + 1)[n]
    return n * math.log(r2) - t


def log_norm(family: str, k: float, r2: float) -> float:
    """log sum_n exp(log_weight(family, k, r2, n)): log g_k(r2) ("bg"),
    -2k log(1 - r2) ("perelomov") or r2 ("sg")."""
    return _family(family, k, r2)[1](k, r2)


def ratio_limit(family: str, k: float, r2: float) -> float:
    """lim_n w_{n+1} / w_n = r2 e^{-step(inf)}: r2 for "perelomov", 0 for "bg" and "sg"."""
    _family(family, k, r2)
    return r2 * _LIMITS[family]


def log_tail_bound(log_prev: float, log_last: float, ratio_limit: float) -> float:
    """log of the envelope bound w_last q / (1 - q) on the weights past w_last, q the larger
    of w_last / w_prev and `ratio_limit` (inf where q >= 1; -inf where w_last = 0, the zero
    parameter).  No later ratio exceeds q: every family's ratios fall in n, but Perelomov's
    at 2k < 1 rise towards its ratio limit.  In logs, weights that all underflow still get a ratio."""
    if log_last == -math.inf:
        return -math.inf
    log_q = log_last - log_prev
    if ratio_limit > 0.0:
        log_q = max(log_q, math.log(ratio_limit))
    if not log_q < 0.0:
        return math.inf
    return log_last + log_q - math.log1p(-math.exp(log_q))


def distribution(family: str, k: float, r2: float) -> tuple:
    """(n, p), the family's number distribution exp(log_weight - log_norm) at r2 over
    n = 0 ... N - 1, normalized in log domain.  N is first mean + 14 sqrt(mean + 1) + 60,
    past which a BG or SG law (ratio limit 0) holds less than 1e-40 of its peak weight;
    where the ratio limit is positive (Perelomov, a geometric tail) N doubles until
    `log_tail_bound` is below 1e-40 of the peak.  DomainError past SERIES_MAX_TERMS."""
    mean = _family(family, k, r2)[2](k, r2)
    q = r2 * _LIMITS[family]
    size = int(min(mean + 14.0 * math.sqrt(mean + 1.0) + 60.0, SERIES_MAX_TERMS)) + 1
    if r2 == 0.0:  # all weight on n = 0
        return np.arange(size, dtype=float), np.eye(1, size).ravel()
    a = None if family == "sg" else 2.0 * k  # the SG table has no 2k
    while size <= SERIES_MAX_TERMS:
        n = np.arange(size, dtype=float)
        table = _table_slot(family, a)[0]
        w = n * math.log(r2)  # log_weight in one buffer, less the table's prefix: no gather
        w -= (table if len(table) >= size else weight_table(family, a, size))[:size]
        peak = w.max()
        if not q > 0.0 or log_tail_bound(w[-2], w[-1], q) < peak + math.log(1e-40):
            np.exp(np.subtract(w, peak, out=w), out=w)
            w /= w.sum()
            return n, w
        size *= 2
    raise DomainError(f"the {family} window at mean {mean!r} passes {SERIES_MAX_TERMS} terms")


def rho_k(k: float, x: float) -> float:
    """Bessel ratio I_{2k}(2x) / I_{2k-1}(2x) = x E[(2k+n)^{-1}] over the BG `distribution`
    at r2 = x^2, finite x >= 0 up to about 1.94e5 (beyond, DomainError).  Below 1 for
    k >= 1/4, where a value rounded above 1 is returned as 1; for k in (0, 1/4) it can
    truly exceed 1: rho_k(0.05, 0.5) = 1.6350141505724103."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"rho_k requires a finite x >= 0, not {x!r}")
    n, p = distribution("bg", k, x * x)
    n += 2.0 * k  # the window's own buffer, now 2k + n
    rho = x * float(p.dot(1.0 / n))
    return min(rho, 1.0) if k >= 0.25 else rho


def rho_k_asymptotic(k: float, x: float) -> float:
    """Large-x expansion 1 - (4k-1)/(4x) + (16(k^2-k)+3)/(32 x^2), finite x > 0."""
    check_k(k)
    if not 0.0 < x < math.inf:
        raise DomainError(f"rho_k_asymptotic requires a finite x > 0, not {x!r}")
    return 1.0 - (4.0 * k - 1.0) / (4.0 * x) + (16.0 * (k * k - k) + 3.0) / (32.0 * x * x)


def rho_k_small_x(k: float, x: float) -> float:
    """Small-x behaviour (x/2k)(1 - x^2/(2k(2k+1))), finite x >= 0."""
    check_k(k)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"rho_k_small_x requires a finite x >= 0, not {x!r}")
    return x / (2.0 * k) * (1.0 - x * x / (2.0 * k * (2.0 * k + 1.0)))
