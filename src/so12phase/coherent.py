"""The three coherent-state families of the positive discrete series.

Lowering-operator eigenstates (parameter z over the whole plane),
displacement-operator states (parameter lambda in the unit disc), and
eigenstates of the composite oscillator annihilation operator (parameter
alpha).  Every closed-form statistic here has a truncated-matrix
counterpart in the tests; state vectors grow their cutoff geometrically
until the tail norm falls below TAIL_TOL.  A family is fixed by its number
distribution, exp(`special_fn.log_weight` - `special_fn.log_norm`) under the
family's name (FAMILY), which asks for no quantum number past SERIES_MAX_TERMS:
the distribution sums, SG's above |alpha| ~ 440 among them, raise DomainError
beyond.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import special_fn as sf
from .quadrature import gauss_legendre_panels

TAIL_TOL = 1e-8
MAX_CUTOFF = 2048
NEAR_MODULUS = 20.0  # up to this |z|, <(K0+k)^{-1/2}> is summed over the number distribution


class CutoffExhausted(RuntimeError):
    """Tail norm still above tolerance at the maximum basis size."""


class NormDefect(RuntimeError):
    """Assembled coefficients miss unit norm by more than TAIL_TOL."""


def _check_unit_disc(lam) -> float:
    r = abs(lam)
    if not r < 1.0:
        raise sf.DomainError(f"|lambda| must be < 1, not {lam!r}")
    return r


@dataclass(frozen=True)
class _CoherentState:
    """A family's index k and its one complex parameter.  Each family names
    the parameter's field in PARAM and itself in FAMILY."""

    k: float

    def __post_init__(self):
        sf.check_k(self.k)
        object.__setattr__(self, self.PARAM, complex(self.parameter))
        sf.check_finite(self.PARAM, self.parameter)

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
    """Eigenstate of the lowering operator K- with eigenvalue z; k > 0 finite, z finite."""

    PARAM = "z"
    FAMILY = "bg"
    z: complex


@dataclass(frozen=True)
class PerelomovState(_CoherentState):
    """Displacement-operator state; k > 0 finite, lambda finite and strictly
    inside the unit disc.  lambda shares its phase with the displacement
    parameter w, with |lambda| = tanh(|w|/2)."""

    PARAM = "lam"
    FAMILY = "perelomov"
    lam: complex
    w: complex = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        _check_unit_disc(self.parameter)
        object.__setattr__(self, "w", cmath.rect(2.0 * math.atanh(self.modulus), self.arg))

    @classmethod
    def from_w(cls, k: float, w: complex) -> "PerelomovState":
        w = complex(w)
        return cls(k, cmath.rect(math.tanh(abs(w) / 2.0), cmath.phase(w)))


@dataclass(frozen=True)
class SGState(_CoherentState):
    """Eigenstate of the composite annihilation operator; k > 0 finite,
    alpha finite.  The mean quantum number |alpha|^2 is independent of k."""

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


def _grow_until_tail(log_weight, phase, ratio_limit):
    """Assemble normalized coefficients |c_n| phase^n from log|c_n| values, growing the
    basis geometrically from 64 terms until the tail norm, bounded by `sf.log_tail_bound`
    on the |c_n|^2, drops below TAIL_TOL; 1 - sum(|c_n|^2) would bottom out at sqrt(eps).
    Raises CutoffExhausted when no window up to MAX_CUTOFF bounds the tail, and
    NormDefect when the assembled norm misses 1 - tail^2 by more than TAIL_TOL.
    """
    n_dim = 64
    while True:
        logw = log_weight(np.arange(n_dim))
        log_tail_sq = sf.log_tail_bound(2.0 * logw[-2], 2.0 * logw[-1], ratio_limit)
        if log_tail_sq < 2.0 * math.log(TAIL_TOL):
            tail_norm = math.exp(0.5 * log_tail_sq)
            break
        if n_dim >= MAX_CUTOFF:
            raise CutoffExhausted(
                f"tail norm above {TAIL_TOL:g} at cutoff {MAX_CUTOFF}")
        n_dim = min(MAX_CUTOFF, 2 * n_dim)
    amps = np.exp(logw) * phase ** np.arange(n_dim)
    defect = abs(float(np.sum(np.abs(amps) ** 2)) + tail_norm ** 2 - 1.0)
    if not defect <= TAIL_TOL:
        raise NormDefect(f"norm misses 1 by {defect:.3g} at cutoff {n_dim}")
    return amps, tail_norm


def _assemble(state) -> StateVector:
    """State vector with |c_n|^2 the state's number distribution and c_n
    carrying the parameter's phase to the power n, built in log domain."""
    family, k, r2 = state.FAMILY, state.k, state.modulus ** 2
    log_norm = sf.log_norm(family, k, r2)
    amps, tail = _grow_until_tail(lambda n: 0.5 * (sf.log_weight(family, k, r2, n) - log_norm),
                                  cmath.exp(1j * state.arg), sf.ratio_limit(family, k, r2))
    return StateVector(state.k, amps, tail)


def bg_amplitudes(state: BGState) -> StateVector:
    """Coefficients z^n / sqrt((2k)_n n! g_k(|z|^2))."""
    return _assemble(state)


def perelomov_amplitudes(state: PerelomovState) -> StateVector:
    """Coefficients (1-|lam|^2)^k sqrt((2k)_n/n!) lam^n."""
    return _assemble(state)


def sg_amplitudes(state: SGState) -> StateVector:
    """Coefficients e^{-|alpha|^2/2} alpha^n / sqrt(n!)."""
    return _assemble(state)


def amplitudes(state) -> StateVector:
    """The state vector by the family's `*_amplitudes`, looked up at call time."""
    if not isinstance(state, _CoherentState):
        raise TypeError(f"not a coherent state: {state!r}")
    return globals()[state.FAMILY + "_amplitudes"](state)


def number_prob(state, n: int) -> float:
    """|c_n|^2, the state's number distribution at the quantum number n."""
    sf.check_n(n)
    family, k, r2 = state.FAMILY, state.k, state.modulus ** 2
    return float(np.exp(sf.log_weight(family, k, r2, n) - sf.log_norm(family, k, r2)))


def inv_sqrt_k0_expectation(k: float, z_mod: float) -> float:
    """<(K0+k)^{-1/2}> in a lowering-eigenstate of modulus |z|: for |z| <=
    NEAR_MODULUS the sum of (2k+n)^{-1/2} over the number distribution, else
    the Laplace-transform integral evaluated in log domain (substituting
    t = s^2 removes the endpoint singularity)."""
    if not 0.0 <= z_mod < math.inf:
        raise sf.DomainError(f"inv_sqrt_k0_expectation requires a finite |z| >= 0, not {z_mod!r}")
    if z_mod <= NEAR_MODULUS:
        n, p = sf.distribution("bg", k, z_mod * z_mod)
        return float(p @ (2.0 * k + n) ** -0.5)
    r2 = z_mod * z_mod
    log_norm = sf.log_norm("bg", k, r2)

    def integrand(s):
        s = np.asarray(s)
        inner = np.array([sf.log_g_k(k, r2 * math.exp(-v * v)) for v in s])
        return 2.0 * np.exp(-2.0 * k * s * s + inner - log_norm)

    val, _ = gauss_legendre_panels(integrand, 0.0, math.sqrt(40.0))
    return float(np.real(val)) / math.sqrt(math.pi)


def bg_expectations(k: float, z) -> dict:
    """Moments of K0, K1, K2 and the number operator in a lowering-operator
    eigenstate from one BG `sf.distribution`, and <(K0+k)^{-1/2}> past NEAR_MODULUS
    from `inv_sqrt_k0_expectation`.  Mandel's Q and R = Q/Nbar are None at z = 0."""
    z = complex(z)
    r = abs(z)
    n, p = sf.distribution("bg", k, r * r)
    phi = cmath.phase(z)
    nbar = float(p @ n)
    k0 = k + nbar
    var_k0 = float(p @ (n - nbar) ** 2)
    q = float(p @ (n * (n - 1.0))) / nbar - nbar if nbar > 0 else None
    inv_sqrt = float(p @ (2.0 * k + n) ** -0.5) if r <= NEAR_MODULUS else inv_sqrt_k0_expectation(k, r)
    return {
        "K0": k0,
        "K0_sq": k * k + r * r + nbar,
        "var_K0": var_k0,
        "Nbar": nbar,
        "var_N": var_k0,
        "R": q / nbar if nbar > 0 else None,
        "Q": q,
        "K1": r * math.cos(phi),
        "K2": -r * math.sin(phi),
        "K1_sq": r * r * math.cos(phi) ** 2 + 0.5 * k0,
        "K2_sq": r * r * math.sin(phi) ** 2 + 0.5 * k0,
        "var_K1": 0.5 * k0,
        "var_K2": 0.5 * k0,
        "anticomm_K1K2": -r * r * math.sin(2.0 * phi),
        "S_corr": 0.0,
        "E_inv": float(p @ (1.0 / (2.0 * k + n))),
        "a_expect": z * inv_sqrt,
    }


def bg_overlap(k: float, z2, z1) -> complex:
    """<k,z2|k,z1> = g_k(conj(z2) z1) / sqrt(g_k(|z2|^2) g_k(|z1|^2))."""
    z1, z2 = complex(z1), complex(z2)
    sf.check_finite("z2", z2)
    sf.check_finite("z1", z1)
    num = sf.g_k(k, np.conj(z2) * z1).value
    log_den = 0.5 * (sf.log_norm("bg", k, abs(z2) ** 2) + sf.log_norm("bg", k, abs(z1) ** 2))
    return num * math.exp(-log_den)


def perelomov_expectations(k: float, lam) -> dict:
    """Closed-form moments in a displacement-operator state."""
    sf.check_k(k)
    lam = complex(lam)
    r = _check_unit_disc(lam)
    th = cmath.phase(lam)
    denom = (1.0 - r) * (1.0 + r)
    k0 = k * (1.0 + r * r) / denom
    var_k0 = 2.0 * k * r * r / denom ** 2
    k0_sq = k0 * k0 + var_k0
    nbar = 2.0 * k * r * r / denom
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


def sg_sums(k: float, alpha_mod: float) -> dict:
    """The Poisson sums h1 = <sqrt(N+2k)> and h2 = <sqrt((N+2k)(N+2k+1))>,
    the combination h entering the quadrature second moments, and
    diff = h2 - h1^2.

    With a = N + 2k, sqrt(a(a+1)) = a + 1/2 + delta where
    delta = -1/4 / (sqrt(a(a+1)) + a + 1/2), and <N> = x = |alpha|^2, so
    h2 = x + 2k + 1/2 + <delta>, h = x/4 - x <delta>/2 + k/2 and
    diff = 1/2 + <delta> + <(sqrt(a) - h1)^2>.  No term of size x^2 is
    subtracted, so h and diff keep full relative precision at large |alpha|.
    The sums run over `sf.distribution`'s window from n = 0, which passes
    SERIES_MAX_TERMS above |alpha| ~ 440: DomainError there and for |alpha| < 0.
    """
    if not 0.0 <= alpha_mod < math.inf:
        raise sf.DomainError(f"|alpha| must be finite and >= 0, not {alpha_mod!r}")
    x = alpha_mod ** 2
    n, p = sf.distribution("sg", k, x)
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


def sg_asymptotics(k: float, alpha_modulus: float) -> dict:
    """Large-|alpha| expansions of h1, h1^2, h2, h2 - h1^2 and h.

    h1_sq is the square of the h1 series and diff is h2 minus it, both to
    the same order; the tests pin the coefficients to Poisson sums."""
    sf.check_k(k)
    if not 5.0 <= alpha_modulus < math.inf:
        raise sf.DomainError(f"asymptotic branch needs a finite |alpha| >= 5, not {alpha_modulus!r}")
    x = alpha_modulus
    ix2 = x ** -2.0
    c14 = -0.5 * k * k + 3.0 * k / 8.0 - 7.0 / 128.0
    h1 = x * (1.0 + (k - 0.125) * ix2 + c14 * ix2 * ix2)
    h1_sq = x * x * (1.0 + (2.0 * k - 0.25) * ix2 + (0.5 * k - 3.0 / 32.0) * ix2 * ix2)
    h2 = x * x * (1.0 + (2.0 * k + 0.5) * ix2 - 0.125 * ix2 * ix2)
    diff = 0.75 - (0.5 * k + 1.0 / 32.0) * ix2
    h = 0.25 * x * x * (1.0 + (2.0 * k + 0.25) * ix2)
    return {"h1": h1, "h1_sq": h1_sq, "h2": h2, "diff": diff, "h": h,
            "c1_minus4": c14}


def cross_kernel_C(k: float, u) -> complex:
    """C_k(u) = sum_n u^n / (sqrt((2k)_n) n!), the line between the
    composite-oscillator and lowering-eigenstate families."""
    sf.check_k(k)
    u = complex(u)
    sf.check_finite("u", u)
    res = sf.ratio_series(lambda n: u / ((n + 1.0) * math.sqrt(2.0 * k + n)))
    return sf.unscaled(res, "cross_kernel_C").value


def cross_kernel_D(k: float, u) -> complex:
    """D_k(u) = sum_n sqrt((2k)_n) u^n / n!."""
    sf.check_k(k)
    u = complex(u)
    sf.check_finite("u", u)
    res = sf.ratio_series(lambda n: u * math.sqrt(2.0 * k + n) / (n + 1.0))
    return sf.unscaled(res, "cross_kernel_D").value


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
    sf.check_k(k)
    alpha, z, lam = complex(alpha), complex(z), complex(lam)
    _check_unit_disc(lam)
    c_k = cross_kernel_C(k, alpha.conjugate() * z)
    d_k = cross_kernel_D(k, alpha.conjugate() * lam)
    log_sg = -0.5 * sf.log_norm("sg", k, abs(alpha) ** 2)
    log_bg = -0.5 * sf.log_norm("bg", k, abs(z) ** 2)
    log_pl = -0.5 * sf.log_norm("perelomov", k, abs(lam) ** 2)
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
