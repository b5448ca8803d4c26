"""The three coherent-state families of the positive discrete series.

Lowering-operator eigenstates (parameter z over the whole plane),
displacement-operator states (parameter lambda in the unit disc), and
eigenstates of the composite oscillator annihilation operator (parameter
alpha).  Every closed-form statistic here has a truncated-matrix
counterpart in the tests; state vectors grow their cutoff geometrically
until the tail norm falls below TAIL_TOL.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaln

from . import special_fn as sf
from .quadrature import gauss_legendre_panels

TAIL_TOL = 1e-8
MAX_CUTOFF = 2048


class CutoffExhausted(RuntimeError):
    """Tail norm still above tolerance at the maximum basis size."""


class NormDefect(RuntimeError):
    """Assembled coefficients miss unit norm by more than TAIL_TOL."""


@dataclass(frozen=True)
class _CoherentState:
    """A family's index k and its one complex parameter.  Each family names
    the parameter's field in PARAM and itself in FAMILY."""

    k: float

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError("k must be positive and finite")
        object.__setattr__(self, self.PARAM, complex(self.parameter))

    @property
    def parameter(self) -> complex:
        return getattr(self, self.PARAM)

    @property
    def modulus(self) -> float:
        return abs(self.parameter)

    @property
    def arg(self) -> float:
        return cmath.phase(self.parameter)


@dataclass(frozen=True)
class BGState(_CoherentState):
    """Eigenstate of the lowering operator K- with eigenvalue z."""

    PARAM = "z"
    FAMILY = "bg"
    z: complex


@dataclass(frozen=True)
class PerelomovState(_CoherentState):
    """Displacement-operator state; lambda lives strictly inside the unit
    disc and shares its phase with the displacement parameter w, with
    |lambda| = tanh(|w|/2)."""

    PARAM = "lam"
    FAMILY = "perelomov"
    lam: complex
    w: complex = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        if self.modulus >= 1.0:
            raise ValueError("|lambda| must be < 1")
        object.__setattr__(self, "w", cmath.rect(2.0 * math.atanh(self.modulus), self.arg))

    @classmethod
    def from_w(cls, k: float, w: complex) -> "PerelomovState":
        w = complex(w)
        return cls(k, cmath.rect(math.tanh(abs(w) / 2.0), cmath.phase(w)))


@dataclass(frozen=True)
class SGState(_CoherentState):
    """Eigenstate of the composite annihilation operator; mean quantum
    number |alpha|^2 independent of k."""

    PARAM = "alpha"
    FAMILY = "sg"
    alpha: complex


@dataclass(frozen=True)
class StateVector:
    """Coefficients over |k,n> with the neglected tail norm."""

    k: float
    coeffs: np.ndarray
    tail_norm: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @property
    def cutoff(self) -> int:
        return len(self.coeffs)

    def norm_defect(self) -> float:
        return abs(float(np.sum(np.abs(self.coeffs) ** 2)) + self.tail_norm ** 2 - 1.0)


def _grow_until_tail(log_weight, cutoff, family_phase, ratio_limit=0.0):
    """Assemble normalized coefficients from log|c_n| values, growing the
    basis geometrically until the tail norm estimate drops below TAIL_TOL.

    On a window of N terms the tail is bounded by a geometric envelope: with
    q the larger of the last ratio |c_{N-1}|^2 / |c_{N-2}|^2 and
    `ratio_limit`, no later ratio exceeds q, so the squared tail norm is at
    most |c_{N-1}|^2 q / (1 - q).  The ratios of all three families decrease
    in n, except Perelomov's at 2k < 1, which rise towards |lambda|^2; that
    family passes |lambda|^2 as `ratio_limit`.  The ratio is taken in log
    domain, so a window whose weights all underflow (its mass lies beyond)
    grows instead of passing for empty.  The naive 1 - sum(|c_n|^2) would
    bottom out at sqrt(eps) ~ 1.5e-8.

    The tail is exactly zero only when the last log weight is -inf: finite
    support inside the window, which happens for the zero parameter.
    Raises CutoffExhausted when no window up to MAX_CUTOFF bounds the tail,
    and NormDefect when the assembled norm misses 1 - tail^2 by more than
    TAIL_TOL.
    """
    n_dim = max(cutoff, 8)
    while True:
        logw = log_weight(np.arange(n_dim))
        if np.isneginf(logw[-1]):
            tail_norm = 0.0  # exactly finite support (parameter zero)
            break
        log_ratio = 2.0 * (logw[-1] - logw[-2])
        if ratio_limit > 0.0:
            log_ratio = max(log_ratio, math.log(ratio_limit))
        if log_ratio < 0.0:
            log_tail_sq = 2.0 * logw[-1] + log_ratio - math.log1p(-math.exp(log_ratio))
            if log_tail_sq < 2.0 * math.log(TAIL_TOL):
                tail_norm = math.exp(0.5 * log_tail_sq)
                break
        if n_dim >= MAX_CUTOFF:
            raise CutoffExhausted(
                f"tail norm above {TAIL_TOL:g} at cutoff {MAX_CUTOFF}")
        n_dim = min(MAX_CUTOFF, 2 * n_dim)
    amps = np.exp(logw) * family_phase(np.arange(n_dim))
    defect = abs(float(np.sum(np.abs(amps) ** 2)) + tail_norm ** 2 - 1.0)
    if not defect <= TAIL_TOL:
        raise NormDefect(f"norm misses 1 by {defect:.3g} at cutoff {n_dim}")
    return amps, tail_norm


def _bg_log_weight(k, r2, n):
    """log of |z|^{2n} / ((2k)_n n!), the BG number distribution up to its
    normalization g_k(|z|^2)."""
    n = np.asarray(n, dtype=float)
    if r2 == 0.0:
        return np.where(n == 0, 0.0, -np.inf)
    return n * math.log(r2) - (gammaln(2 * k + n) - math.lgamma(2 * k)) - gammaln(n + 1.0)


def _pl_log_weight(k, r2, n):
    """log of (1-|lam|^2)^{2k} (2k)_n |lam|^{2n} / n!, the Perelomov
    (negative-binomial) number distribution, r2 = |lam|^2."""
    n = np.asarray(n, dtype=float)
    if r2 == 0.0:
        return np.where(n == 0, 0.0, -np.inf)
    return (2.0 * k * math.log1p(-r2) + n * math.log(r2)
            + (gammaln(2 * k + n) - math.lgamma(2 * k)) - gammaln(n + 1.0))


def _sg_log_weight(x, n):
    """log of the Poisson weight e^{-x} x^n / n!, x = |alpha|^2."""
    n = np.asarray(n, dtype=float)
    if x == 0.0:
        return np.where(n == 0, 0.0, -np.inf)
    return n * math.log(x) - x - gammaln(n + 1.0)


def _window(mean):
    """n = 0 ... mean + 14 sqrt(mean + 1) + 60: beyond it a BG or SG
    distribution of that mean holds less than 1e-40 of its weight."""
    return np.arange(int(mean + 14.0 * math.sqrt(mean + 1.0) + 60.0) + 1, dtype=float)


def _distribution(log_w):
    """Probabilities proportional to exp(log_w), normalized in log domain."""
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return w


def _assemble(state, log_weight, cutoff, ratio_limit=0.0) -> StateVector:
    """State vector with |c_n|^2 = exp(log_weight(n)) and c_n carrying the
    parameter's phase to the power n."""
    phase = cmath.exp(1j * state.arg)
    amps, tail = _grow_until_tail(lambda n: 0.5 * log_weight(n), cutoff,
                                  lambda n: phase ** n, ratio_limit)
    return StateVector(state.k, amps, tail)


def bg_amplitudes(state: BGState, cutoff: int = 64) -> StateVector:
    """Coefficients z^n / sqrt((2k)_n n! g_k(|z|^2)), built in log domain."""
    k, r2 = state.k, state.modulus ** 2
    log_norm = sf.log_g_k(k, r2)
    return _assemble(state, lambda n: _bg_log_weight(k, r2, n) - log_norm, cutoff)


def perelomov_amplitudes(state: PerelomovState, cutoff: int = 64) -> StateVector:
    """Coefficients (1-|lam|^2)^k sqrt((2k)_n/n!) lam^n."""
    r2 = state.modulus ** 2
    return _assemble(state, lambda n: _pl_log_weight(state.k, r2, n), cutoff, r2)


def sg_amplitudes(state: SGState, cutoff: int = 64) -> StateVector:
    """Coefficients e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    x = state.modulus ** 2
    return _assemble(state, lambda n: _sg_log_weight(x, n), cutoff)


def amplitudes(state, cutoff: int = 64) -> StateVector:
    if isinstance(state, BGState):
        return bg_amplitudes(state, cutoff)
    if isinstance(state, PerelomovState):
        return perelomov_amplitudes(state, cutoff)
    if isinstance(state, SGState):
        return sg_amplitudes(state, cutoff)
    raise TypeError(f"not a coherent state: {state!r}")


def inv_sqrt_k0_expectation(k: float, z_mod: float) -> float:
    """<(K0+k)^{-1/2}> in a lowering-eigenstate of modulus |z|: for |z| <= 20
    the sum of (2k+n)^{-1/2} over the number distribution, else the
    Laplace-transform integral evaluated in log domain (substituting t = s^2
    removes the endpoint singularity)."""
    r2 = z_mod * z_mod
    if z_mod <= 20.0:
        n = _window(z_mod)
        return float(_distribution(_bg_log_weight(k, r2, n)) @ (2.0 * k + n) ** -0.5)
    log_norm = sf.log_g_k(k, r2)

    def integrand(s):
        s = np.asarray(s)
        inner = np.array([sf.log_g_k(k, r2 * math.exp(-v * v)) for v in s])
        return 2.0 * np.exp(-2.0 * k * s * s + inner - log_norm)

    val, _ = gauss_legendre_panels(integrand, 0.0, math.sqrt(40.0), panels=8)
    return float(np.real(val)) / math.sqrt(math.pi)


def bg_expectations(k: float, z) -> dict:
    """Closed-form moments of K0, K1, K2 and the number operator in a
    lowering-operator eigenstate.  Mandel's Q and the ratio R are reported
    as None at z = 0 where the mean quantum number vanishes."""
    z = complex(z)
    r = abs(z)
    phi = cmath.phase(z)
    rho = sf.rho_k(k, r)
    k0 = k + r * rho
    k0_sq = k * k + r * r + r * rho
    var_k0 = r * r * (1.0 - rho * rho) + (1.0 - 2.0 * k) * r * rho
    nbar = r * rho
    var_n = var_k0
    if nbar > 0:
        ratio_r = 1.0 / rho ** 2 - 2.0 * k / (r * rho) - 1.0
        q = r * (1.0 / rho - rho) - 2.0 * k
    else:
        ratio_r = None
        q = None
    k1 = r * math.cos(phi)
    k2 = -r * math.sin(phi)
    k1_sq = r * r * math.cos(phi) ** 2 + 0.5 * k0
    k2_sq = r * r * math.sin(phi) ** 2 + 0.5 * k0
    inv_sqrt = inv_sqrt_k0_expectation(k, r)
    return {
        "K0": k0,
        "K0_sq": k0_sq,
        "var_K0": var_k0,
        "Nbar": nbar,
        "var_N": var_n,
        "R": ratio_r,
        "Q": q,
        "K1": k1,
        "K2": k2,
        "K1_sq": k1_sq,
        "K2_sq": k2_sq,
        "var_K1": 0.5 * k0,
        "var_K2": 0.5 * k0,
        "anticomm_K1K2": -r * r * math.sin(2.0 * phi),
        "S_corr": 0.0,
        "E_inv": rho / r if r > 0 else 1.0 / (2.0 * k),
        "a_expect": z * inv_sqrt,
    }


def bg_overlap(k: float, z2, z1) -> complex:
    """<k,z2|k,z1> = g_k(conj(z2) z1) / sqrt(g_k(|z2|^2) g_k(|z1|^2))."""
    z1, z2 = complex(z1), complex(z2)
    num = sf.g_k(k, np.conj(z2) * z1).value
    log_den = 0.5 * (sf.log_g_k(k, abs(z2) ** 2) + sf.log_g_k(k, abs(z1) ** 2))
    return num * math.exp(-log_den)


def bg_number_prob(k: float, z, n: int) -> float:
    """|z|^{2n} / ((2k)_n n! g_k(|z|^2)), a normalized distribution in n."""
    r2 = abs(complex(z)) ** 2
    return float(np.exp(_bg_log_weight(k, r2, n) - sf.log_g_k(k, r2)))


def perelomov_expectations(k: float, lam) -> dict:
    """Closed-form moments in a displacement-operator state."""
    if not (k > 0 and math.isfinite(k)):
        raise ValueError("k must be positive and finite")
    lam = complex(lam)
    r = abs(lam)
    if r >= 1.0:
        raise ValueError("|lambda| must be < 1")
    th = cmath.phase(lam)
    denom = 1.0 - r * r
    k0 = k * (1.0 + r * r) / denom
    var_k0 = 2.0 * k * r * r / denom ** 2
    k0_sq = k0 * k0 + var_k0
    nbar = k0 - k
    var_n = var_k0
    one_plus = abs(1.0 + lam * lam) ** 2
    one_minus = abs(1.0 - lam * lam) ** 2
    k1 = 2.0 * k * r * math.cos(th) / denom
    k2 = -2.0 * k * r * math.sin(th) / denom
    var_k1 = 0.5 * k * one_plus / denom ** 2
    var_k2 = 0.5 * k * one_minus / denom ** 2
    s_corr = -k * r * r * math.sin(2.0 * th) / denom ** 2
    return {
        "K0": k0,
        "K0_sq": k0_sq,
        "var_K0": var_k0,
        "Nbar": nbar,
        "var_N": var_n,
        "R": 1.0 / (2.0 * k),
        "Q": nbar / (2.0 * k) if nbar > 0 else None,
        "K1": k1,
        "K2": k2,
        "K1_sq": var_k1 + k1 * k1,
        "K2_sq": var_k2 + k2 * k2,
        "var_K1": var_k1,
        "var_K2": var_k2,
        "S_corr": s_corr,
        "sum_sq_identity": k1 * k1 + k2 * k2 - (k0 * k0 - k * k),
        "fluct_identity": var_k1 + var_k2 - (var_k0 + k),
        "schwarz_defect": var_k1 * var_k2 - 0.25 * k0 * k0 - s_corr * s_corr,
    }


def bose_statistics(lambda_modulus: float, n: int) -> float:
    """Geometric number distribution (1-|lam|^2)|lam|^{2n} of the k=1/2
    displacement states."""
    if not (0.0 < lambda_modulus < 1.0):
        raise ValueError("need 0 < |lambda| < 1")
    x = lambda_modulus ** 2
    return (1.0 - x) * x ** n


def bose_mean(lambda_modulus: float) -> float:
    x = lambda_modulus ** 2
    return x / (1.0 - x)


def sg_sums(k: float, alpha_mod: float) -> dict:
    """The Poisson sums h1 = <sqrt(N+2k)> and h2 = <sqrt((N+2k)(N+2k+1))>,
    the combination h entering the quadrature second moments, and
    diff = h2 - h1^2.

    With a = N + 2k, sqrt(a(a+1)) = a + 1/2 + delta where
    delta = -1/4 / (sqrt(a(a+1)) + a + 1/2), and <N> = x = |alpha|^2, so
    h2 = x + 2k + 1/2 + <delta>, h = x/4 - x <delta>/2 + k/2 and
    diff = 1/2 + <delta> + <(sqrt(a) - h1)^2>.  No term of size x^2 is
    subtracted, so h and diff keep full relative precision at large |alpha|.
    """
    x = alpha_mod ** 2
    n = _window(x)
    p = _distribution(_sg_log_weight(x, n))
    a = n + 2.0 * k
    sqrt_a = np.sqrt(a)
    h1 = float(p @ sqrt_a)
    delta = float(p @ (-0.25 / (np.sqrt(a * (a + 1.0)) + a + 0.5)))
    return {"h1": h1, "h2": x + 2.0 * k + 0.5 + delta,
            "h": 0.25 * x - 0.5 * x * delta + 0.5 * k,
            "diff": 0.5 + delta + float(p @ (sqrt_a - h1) ** 2)}


def sg_expectations(k: float, alpha) -> dict:
    """Moments of the composite-annihilation eigenstates: the K0 moments
    are oscillator-like while K1, K2 involve the series sums h1, h2."""
    if not (k > 0 and math.isfinite(k)):
        raise ValueError("k must be positive and finite")
    alpha = complex(alpha)
    r = abs(alpha)
    beta = cmath.phase(alpha)
    sums = sg_sums(k, r)
    h1, h2, h, diff = sums["h1"], sums["h2"], sums["h"], sums["diff"]
    c, s = math.cos(beta), math.sin(beta)
    return {
        "K1": r * c * h1,
        "K2": -r * s * h1,
        "K0": r * r + k,
        "var_K0": r * r,
        "K1_sq": r * r * c * c * h2 + h,
        "K2_sq": r * r * s * s * h2 + h,
        "var_K1": r * r * c * c * diff + h,
        "var_K2": r * r * s * s * diff + h,
        "S_corr": -0.5 * r * r * math.sin(2.0 * beta) * diff,
        "h1": h1,
        "h2": h2,
        "h": h,
        "Nbar": r * r,
    }


def sg_asymptotics(k: float, alpha_modulus: float, order: int = 2) -> dict:
    """Large-|alpha| expansions of h1, h1^2, h2, h2 - h1^2 and h.

    h1_sq is the square of the h1 series and diff is h2 minus it, both to
    the same order; the tests pin the coefficients to Poisson sums."""
    if alpha_modulus < 5.0:
        raise ValueError("asymptotic branch needs |alpha| >= 5")
    if order > 2:
        raise ValueError("expansions implemented to order 2")
    x = alpha_modulus
    ix2 = x ** -2.0
    c14 = -0.5 * k * k + 3.0 * k / 8.0 - 7.0 / 128.0
    h1 = x * (1.0 + (k - 0.125) * ix2 + (c14 * ix2 * ix2 if order >= 2 else 0.0))
    h1_sq = x * x * (1.0 + (2.0 * k - 0.25) * ix2
                     + ((0.5 * k - 3.0 / 32.0) * ix2 * ix2 if order >= 2 else 0.0))
    h2 = x * x * (1.0 + (2.0 * k + 0.5) * ix2
                  - (0.125 * ix2 * ix2 if order >= 2 else 0.0))
    diff = 0.75 - ((0.5 * k + 1.0 / 32.0) * ix2 if order >= 1 else 0.0)
    h = 0.25 * x * x * (1.0 + ((2.0 * k + 0.25) * ix2 if order >= 1 else 0.0))
    return {"h1": h1, "h1_sq": h1_sq, "h2": h2, "diff": diff, "h": h,
            "c1_minus4": c14}


def _cross_series(u, step) -> complex:
    """sum_n t_n with t_0 = 1 and t_{n+1} = t_n step(u, n), stopped once a
    term falls below 1e-17 of the partial sum.  Raises OverflowError once
    the partial sum is no longer finite."""
    u = complex(u)
    acc = 0.0 + 0.0j
    t = 1.0 + 0.0j
    n = 0
    while True:
        acc += t
        if not cmath.isfinite(acc):
            raise OverflowError(f"cross kernel series overflows at |u| = {abs(u):g}")
        t *= step(u, n)
        n += 1
        if n > 4 and abs(t) < 1e-17 * max(abs(acc), 1e-300):
            break
        if n > sf.SERIES_MAX_TERMS:
            break
    return acc


def cross_kernel_C(k: float, u) -> complex:
    """C_k(u) = sum_n u^n / (sqrt((2k)_n) n!), the line between the
    composite-oscillator and lowering-eigenstate families."""
    return _cross_series(u, lambda u, n: u / ((n + 1.0) * math.sqrt(2.0 * k + n)))


def cross_kernel_D(k: float, u) -> complex:
    """D_k(u) = sum_n sqrt((2k)_n) u^n / n!."""
    return _cross_series(u, lambda u, n: u * math.sqrt(2.0 * k + n) / (n + 1.0))


def _times_exp(kernel: complex, log_scale: float) -> complex:
    """kernel e^{log_scale}, formed as kernel/|kernel| e^{log|kernel| + log_scale}
    so that neither factor over- or underflows on its own."""
    mod = abs(kernel)
    if mod == 0.0:
        return 0j
    return kernel / mod * math.exp(math.log(mod) + log_scale)


def cross_overlaps(k: float, alpha, z, lam) -> dict:
    """All pairwise scalar products between the three families, each
    assembled in log domain: e^{-|alpha|^2/2} underflows beyond
    |alpha| ~ 38.6 while the kernels grow."""
    alpha, z, lam = complex(alpha), complex(z), complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("|lambda| must be < 1")
    c_k = cross_kernel_C(k, alpha.conjugate() * z)
    d_k = cross_kernel_D(k, alpha.conjugate() * lam)
    log_sg = -0.5 * abs(alpha) ** 2
    log_bg = -0.5 * sf.log_g_k(k, abs(z) ** 2)
    log_pl = k * math.log1p(-abs(lam) ** 2)
    return {"C_k": c_k, "D_k": d_k,
            "overlap_az": _times_exp(c_k, log_sg + log_bg),
            "overlap_al": _times_exp(d_k, log_sg + log_pl),
            "overlap_lz": cmath.exp(lam.conjugate() * z + log_pl + log_bg)}


def time_evolve(state, t: float):
    """Free evolution by K0: the family is preserved, the parameter turns
    by e^{-it}, and a global phase e^{-ikt} multiplies the state."""
    turned = replace(state, **{state.PARAM: state.parameter * cmath.exp(-1j * t)})
    return turned, cmath.exp(-1j * state.k * t)


def serialize_state(state, vec: StateVector) -> dict:
    """JSON-ready payload for the file exports."""
    par = state.parameter
    return {
        "family": state.FAMILY,
        "k": state.k,
        "parameter": [par.real, par.imag],
        "cutoff": vec.cutoff,
        "tail_norm": vec.tail_norm,
        "coeffs": [[c.real, c.imag] for c in vec.coeffs],
    }
