"""Truncated number-basis realization of the positive discrete series.

The generator K0 is diagonal with spectrum {k+n}, the ladder operators carry
the square-root matrix elements of the discrete series with all phases fixed
to one, and composite oscillator operators are assembled from them.  Because
the basis is truncated at dimension N, operator identities that mix raising
and lowering are exact only on the interior block (indices 0..N-3); every
checker in this module reports that block size.

Every operator is banded: an `OperatorMatrix` keeps its nonzero diagonals,
and every product and linear combination is formed on those bands (`_product`,
`_combine`) in O(N) time; only the `entries` handed to callers are dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-14


@dataclass(frozen=True)
class RepParams:
    """Bargmann index k > 0 plus the basis cutoff N >= 4.

    Any positive real k is accepted (universal covering group); the group
    of origin is recorded but not enforced.
    """

    k: float
    cutoff: int

    def __post_init__(self):
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError("Bargmann index k must be positive and finite")
        if not hasattr(type(self.cutoff), "__index__") or self.cutoff < 4:
            raise ValueError(f"cutoff must be an integer of at least 4, not {self.cutoff!r}")

    @property
    def group_of_origin(self) -> str:
        two_k = 2 * self.k
        if float(self.k).is_integer():
            return "SO(1,2)"
        if float(two_k).is_integer():
            return "SU(1,1)"
        return "universal cover"

    @property
    def interior_dim(self) -> int:
        """Rows/columns on which truncated ladder products are exact."""
        return self.cutoff - 2


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex matrix in the number basis, stored by its nonzero diagonals.

    `bands` maps an offset d to entries[i, i+d].  A matrix flagged hermitian
    that is not, or holds a non-finite entry, raises ValueError.  Matrices
    compare by identity."""

    entries: np.ndarray
    hermitian: bool = field(default=False)
    bands: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.bands is None:  # dense input: read its nonzero diagonals off it
            arr = np.asarray(self.entries, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("OperatorMatrix must be square")
            rows, cols = np.nonzero(arr)
            object.__setattr__(self, "entries", arr)
            object.__setattr__(self, "bands", {int(d): arr.diagonal(d) for d in np.unique(cols - rows)})
        if self.hermitian:  # np.max keeps a nan; a non-finite scale skips inf - inf
            scale = np.max([np.max(np.abs(v)) for v in self.bands.values()], initial=0.0)
            dev = max((np.max(np.abs(v - np.conj(self.bands.get(-d, 0.0))))
                       for d, v in self.bands.items()), default=0.0) if math.isfinite(scale) else math.nan
            if not dev <= HERMITICITY_TOL * max(1.0, scale):
                raise ValueError(f"hermitian flag set but deviation {dev:g} at scale {scale:g}")

    @classmethod
    def from_bands(cls, bands: dict, dim: int, hermitian: bool = False) -> "OperatorMatrix":
        """The dim x dim matrix whose diagonal d holds bands[d], made dense here."""
        entries = np.zeros((dim, dim), dtype=complex)
        for d, v in bands.items():  # a strided view of one diagonal
            entries.reshape(-1)[max(d, -d * dim)::dim + 1][:len(v)] = v
        return cls(entries, hermitian, bands)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        o = other.entries if isinstance(other, OperatorMatrix) else other
        return self.entries @ o

    def expectation(self, vec: np.ndarray) -> complex:
        """<vec|A|vec> as a sum of one vdot per band."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} for a {self.dim} x {self.dim} matrix")
        return complex(sum(np.vdot(vec[max(0, -d):][:len(v)], v * vec[max(0, d):][:len(v)])
                           for d, v in self.bands.items()))


def _generator_bands(params: RepParams) -> dict:
    """Bands of K0, K+, K-, K1 and K2: the one place the matrix elements are
    written.  Raises ValueError once the ladder band overflows.

    K0 = diag(k+n); <k,n+1|K+|k,n> = sqrt((2k+n)(n+1)); K- = K+^dagger;
    K1 = (K+ + K-)/2 and K2 = (K+ - K-)/(2i).
    """
    k, n = params.k, np.arange(params.cutoff)
    band = np.sqrt((2 * k + n[:-1]) * (n[:-1] + 1))
    if not math.isfinite(band[-1]):  # the band grows with n
        raise ValueError(f"ladder matrix elements overflow at k = {k:g}")
    return {"K0": {0: k + n}, "Kplus": {-1: band}, "Kminus": {1: band},
            "K1": {-1: 0.5 * band, 1: 0.5 * band}, "K2": {-1: band / 2j, 1: -band / 2j}}


def build_generators(params: RepParams) -> dict:
    """K0, K+, K-, K1, K2 on the truncated basis (see `_generator_bands`)."""
    return {name: OperatorMatrix.from_bands(bands, params.cutoff, hermitian=name in ("K0", "K1", "K2"))
            for name, bands in _generator_bands(params).items()}


def _rows(band: np.ndarray, d: int, lo: int, hi: int) -> np.ndarray:
    """View of the entries [i, i+d] of band d for rows lo <= i < hi."""
    return band[lo - max(0, -d):hi - max(0, -d)]


def _product(a: dict, b: dict, dim: int) -> dict:
    """Bands of A @ B: (AB)[i, i+da+db] += A[i, i+da] * B[i+da, i+da+db], one
    slice product per pair of bands, each entry summed in ascending da.
    Overflow is left to the callers' finiteness checks."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for da in sorted(a):
            for db, vb in b.items():
                d = da + db
                lo, hi = max(0, -da, -d), min(dim, dim - da, dim - d)  # rows all three bands reach
                if lo < hi:
                    acc = _rows(out.setdefault(d, np.zeros(dim - abs(d), dtype=complex)), d, lo, hi)
                    acc += _rows(a[da], da, lo, hi) * _rows(vb, db, lo + da, hi + da)
    return out


def _combine(*terms) -> dict:
    """Bands of sum_j c_j M_j from (c_j, bands of M_j) pairs; a band that
    cancels to zero is dropped."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for c, bands in terms:
            for d, v in bands.items():
                out[d] = out[d] + c * v if d in out else c * v
    return {d: v for d, v in out.items() if v.any()}


def _casimir_bands(g: dict, dim: int) -> dict:
    return _combine((1, _product(g["K1"], g["K1"], dim)), (1, _product(g["K2"], g["K2"], dim)),
                    (-1, _product(g["K0"], g["K0"], dim)))


def casimir(params: RepParams) -> OperatorMatrix:
    """K1^2 + K2^2 - K0^2; equals k(1-k) times the identity on the interior."""
    bands = _casimir_bands(_generator_bands(params), params.cutoff)
    return OperatorMatrix.from_bands(bands, params.cutoff, hermitian=True)


def casimir_eigenvalue(k: float) -> float:
    """Closed form k(1-k): zero only at k=1, maximal 1/4 at k=1/2."""
    return k * (1.0 - k)


def _composite_bands(params: RepParams) -> tuple:
    """The generator bands and those of a and a+ of `composite_ladder`."""
    g, n_dim = _generator_bands(params), params.cutoff
    dinv = {0: 1.0 / np.sqrt(g["K0"][0] + params.k)}
    return g, _product(dinv, g["Kminus"], n_dim), _product(g["Kplus"], dinv, n_dim)


def composite_ladder(params: RepParams) -> dict:
    """Oscillator operators a = (K0+k)^{-1/2} K-, a+ = K+ (K0+k)^{-1/2},
    N = K0 - k built inside the representation."""
    g, a, a_dag = _composite_bands(params)
    n_dim = params.cutoff
    return {
        "a": OperatorMatrix.from_bands(a, n_dim),
        "a_dag": OperatorMatrix.from_bands(a_dag, n_dim),
        "Nop": OperatorMatrix.from_bands({0: g["K0"][0] - params.k}, n_dim, hermitian=True),
    }


def composite_qp(params: RepParams) -> dict:
    """Composite position and momentum (a+ + a)/sqrt2, i(a+ - a)/sqrt2.

    Their matrix elements are k-independent even though a, a+ are built
    from the k-dependent generators.
    """
    _, a, a_dag = _composite_bands(params)
    s = 1 / np.sqrt(2.0)
    return {
        "Qtilde": OperatorMatrix.from_bands(_combine((s, a_dag), (s, a)), params.cutoff, hermitian=True),
        "Ptilde": OperatorMatrix.from_bands(_combine((1j * s, a_dag), (-1j * s, a)), params.cutoff,
                                            hermitian=True),
    }


def number_state_stats(k: float, n: int) -> dict:
    """Closed-form moments of K1, K2 in the number state |k,n>."""
    if k <= 0 or n < 0:
        raise ValueError("need k > 0 and n >= 0")
    var = 0.5 * (n * n + 2.0 * n * k + k)
    return {
        "mean_K1": 0.0,
        "mean_K2": 0.0,
        "var_K1": var,
        "var_K2": var,
        "var_product": var * var,
        "K0_bound": 0.25 * (n + k) ** 2,
        "cross_corr": 0.0,
        "is_minimal": n == 0,
    }


def contraction_limit(k_sequence, n1: int, n2: int):
    """Matrix elements of the rescaled generators K3 = K0/k and
    Kpm/sqrt(2k) along increasing k; they converge to the oscillator
    elements as k grows."""
    ks = list(k_sequence)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k values must increase")
    rows = []
    for k in ks:
        k3 = (1.0 + n1 / k) if n1 == n2 else 0.0
        kp = np.sqrt((1.0 + n1 / (2 * k)) * (n1 + 1)) if n2 == n1 + 1 else 0.0
        km = np.sqrt((1.0 + (n1 - 1) / (2 * k)) * n1) if n2 == n1 - 1 else 0.0
        rows.append({"k": k, "K3": k3, "Kplus_scaled": kp, "Kminus_scaled": km})
    limits = {
        "K3": 1.0 if n1 == n2 else 0.0,
        "Kplus_scaled": np.sqrt(n1 + 1.0) if n2 == n1 + 1 else 0.0,
        "Kminus_scaled": np.sqrt(float(n1)) if n2 == n1 - 1 else 0.0,
    }
    return rows, limits


def oscillator_ladder(n_dim: int) -> tuple:
    """Bands of the standard truncated oscillator a, a+."""
    root = np.sqrt(np.arange(1, n_dim))
    return {1: root}, {-1: root}


def holstein_primakoff(params: RepParams) -> dict:
    """K+, K-, K0 assembled the other way round: from oscillator matrices
    via K+ = a+ sqrt(N+2k); entrywise equal to build_generators output."""
    k, n_dim = params.k, params.cutoff
    k0 = _generator_bands(params)["K0"]
    a, a_dag = oscillator_ladder(n_dim)
    root = {0: np.sqrt(np.arange(n_dim) + 2.0 * k)}
    return {
        "Kplus": OperatorMatrix.from_bands(_product(a_dag, root, n_dim), n_dim),
        "Kminus": OperatorMatrix.from_bands(_product(root, a, n_dim), n_dim),
        "K0": OperatorMatrix.from_bands(k0, n_dim, hermitian=True),
    }


def commutator_residuals(params: RepParams) -> dict:
    """Max deviation of [K0,K1]=iK2, [K0,K2]=-iK1, [K1,K2]=-iK0 on the
    interior block, plus the Casimir deviation there.  Runs on the bands
    in O(N) time and memory."""
    g, n_dim, m = _generator_bands(params), params.cutoff, params.interior_dim
    k0, k1, k2 = g["K0"], g["K1"], g["K2"]

    def comm(x, y):
        return _combine((1, _product(x, y, n_dim)), (-1, _product(y, x, n_dim)))

    def interior_max(r):  # band d's interior block is v[:m - |d|]; np.max keeps a nan
        peaks = [np.max(np.abs(v[:m - abs(d)]), initial=0.0) for d, v in r.items()]
        dev = float(np.max(peaks, initial=0.0))
        if not math.isfinite(dev):
            raise ValueError(f"operator products overflow at k = {params.k:g}")
        return dev

    r1 = _combine((1, comm(k0, k1)), (-1j, k2))
    r2 = _combine((1, comm(k0, k2)), (1j, k1))
    r3 = _combine((1, comm(k1, k2)), (1j, k0))
    cas = _combine((1, _casimir_bands(g, n_dim)), (-casimir_eigenvalue(params.k), {0: np.ones(n_dim)}))
    return {
        "comm_K0_K1": interior_max(r1),
        "comm_K0_K2": interior_max(r2),
        "comm_K1_K2": interior_max(r3),
        "casimir": interior_max(cas),
        "interior_dim": m,
    }


def serialize_operator(op: OperatorMatrix) -> dict:
    """Row-major [re, im] pair serialization used by the file exports."""
    return {
        "dim": op.dim,
        "hermitian": bool(op.hermitian),
        "entries": [[float(z.real), float(z.imag)] for z in op.entries.ravel()],
    }
