"""Truncated number-basis realization of the positive discrete series.

The generator K0 is diagonal with spectrum {k+n}, the ladder operators carry
the square-root matrix elements of the discrete series with all phases fixed
to one, and composite oscillator operators are assembled from them.  Because
the basis is truncated at dimension N, operator identities that mix raising
and lowering are exact only on the interior block (indices 0..N-3); every
checker in this module reports that block size.

Every operator is banded: an `OperatorMatrix` keeps its nonzero diagonals,
and products are formed on `scipy.sparse` CSR arrays and handed over by their
diagonals (`commutator_residuals` never leaves the sparse form).
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


@dataclass(frozen=True)
class OperatorMatrix:
    """Complex matrix in the number basis, stored by its nonzero diagonals.

    `bands` maps an offset d to entries[i, i+d].  A matrix flagged hermitian
    that is not, or holds a non-finite entry, raises ValueError."""

    entries: np.ndarray
    hermitian: bool = field(default=False)
    bands: dict | None = field(default=None, repr=False, compare=False)

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


def _ladder_bands(params: RepParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal k+n of K0 and band sqrt((2k+n)(n+1)) of K+ (below the
    diagonal) and K- (above it): the one place the matrix elements are
    written.  Raises ValueError once the band overflows."""
    k, n = params.k, np.arange(params.cutoff)
    band = np.sqrt((2 * k + n[:-1]) * (n[:-1] + 1))
    if not math.isfinite(band[-1]):  # the band grows with n
        raise ValueError(f"ladder matrix elements overflow at k = {k:g}")
    return k + n, band


def build_generators(params: RepParams) -> dict:
    """K0, K+, K-, K1, K2 on the truncated basis.

    K0 = diag(k+n); <k,n+1|K+|k,n> = sqrt((2k+n)(n+1)); K- = K+^dagger;
    K1 = (K+ + K-)/2 and K2 = (K+ - K-)/(2i).
    """
    diag, band = _ladder_bands(params)
    n_dim = params.cutoff
    return {
        "K0": OperatorMatrix.from_bands({0: diag}, n_dim, hermitian=True),
        "Kplus": OperatorMatrix.from_bands({-1: band}, n_dim),
        "Kminus": OperatorMatrix.from_bands({1: band}, n_dim),
        "K1": OperatorMatrix.from_bands({-1: 0.5 * band, 1: 0.5 * band}, n_dim, hermitian=True),
        "K2": OperatorMatrix.from_bands({-1: band / 2j, 1: -band / 2j}, n_dim, hermitian=True),
    }


def _csr_band(values: np.ndarray, offset: int):
    """Square CSR array holding `values` on the diagonal `offset` in
    {-1, 0, 1}.  Built from its index arrays: scipy's `diags_array(...,
    format="csr")` goes through DIA and costs about four times as much."""
    # imported here, on first use: about 18 ms that callers who never audit
    # (the state-vector and moment paths) need not pay
    from scipy import sparse

    n_dim = len(values) + abs(offset)
    # two ufuncs rather than np.clip, whose own overhead is about 9 us a call
    indptr = np.maximum(np.minimum(np.arange(n_dim + 1) - max(0, -offset), len(values)), 0)
    indices = np.arange(len(values)) + max(0, offset)
    return sparse.csr_array((values, indices, indptr), shape=(n_dim, n_dim))


def _sparse_generators(params: RepParams) -> dict:
    """The generators of `build_generators` as CSR arrays."""
    diag, band = _ladder_bands(params)
    band = band.astype(complex)
    kplus, kminus = _csr_band(band, -1), _csr_band(band, 1)
    return {"K0": _csr_band(diag.astype(complex), 0), "Kplus": kplus, "Kminus": kminus,
            "K1": 0.5 * (kplus + kminus), "K2": (kplus - kminus) / 2j}


def _from_csr(m, hermitian: bool = False) -> OperatorMatrix:
    """The OperatorMatrix of CSR array `m`, handed over by its diagonals."""
    coo = m.tocoo()
    bands = {int(d): m.diagonal(d) for d in np.unique(coo.col - coo.row)}
    return OperatorMatrix.from_bands(bands, m.shape[0], hermitian)


def _identity(n_dim: int):
    return _csr_band(np.ones(n_dim), 0)


def _sparse_casimir(g: dict):
    return g["K1"] @ g["K1"] + g["K2"] @ g["K2"] - g["K0"] @ g["K0"]


def casimir(params: RepParams) -> OperatorMatrix:
    """K1^2 + K2^2 - K0^2; equals k(1-k) times the identity on the interior."""
    return _from_csr(_sparse_casimir(_sparse_generators(params)), hermitian=True)


def casimir_eigenvalue(k: float) -> float:
    """Closed form k(1-k): zero only at k=1, maximal 1/4 at k=1/2."""
    return k * (1.0 - k)


def _sparse_ladder(params: RepParams) -> tuple:
    """The generators, a and a+ of `composite_ladder` as CSR arrays."""
    g = _sparse_generators(params)
    dinv = _csr_band(1.0 / np.sqrt(g["K0"].diagonal().real + params.k).astype(complex), 0)
    return g, dinv @ g["Kminus"], g["Kplus"] @ dinv


def composite_ladder(params: RepParams) -> dict:
    """Oscillator operators a = (K0+k)^{-1/2} K-, a+ = K+ (K0+k)^{-1/2},
    N = K0 - k built inside the representation."""
    g, a, a_dag = _sparse_ladder(params)
    nop = g["K0"] - params.k * _identity(params.cutoff)
    return {
        "a": _from_csr(a),
        "a_dag": _from_csr(a_dag),
        "Nop": _from_csr(nop, hermitian=True),
    }


def composite_qp(params: RepParams) -> dict:
    """Composite position and momentum (a+ + a)/sqrt2, i(a+ - a)/sqrt2.

    Their matrix elements are k-independent even though a, a+ are built
    from the k-dependent generators.
    """
    _, a, a_dag = _sparse_ladder(params)
    q = (a_dag + a) / np.sqrt(2.0)
    p = 1j * (a_dag - a) / np.sqrt(2.0)
    return {
        "Qtilde": _from_csr(q, hermitian=True),
        "Ptilde": _from_csr(p, hermitian=True),
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
    """Standard truncated oscillator a, a+ as CSR arrays."""
    root = np.sqrt(np.arange(1, n_dim)).astype(complex)
    return _csr_band(root, 1), _csr_band(root, -1)


def holstein_primakoff(params: RepParams) -> dict:
    """K+, K-, K0 assembled the other way round: from oscillator matrices
    via K+ = a+ sqrt(N+2k); entrywise equal to build_generators output."""
    k, n_dim = params.k, params.cutoff
    diag, _ = _ladder_bands(params)
    a, a_dag = oscillator_ladder(n_dim)
    root = _csr_band(np.sqrt(np.arange(n_dim) + 2.0 * k).astype(complex), 0)
    return {
        "Kplus": _from_csr(a_dag @ root),
        "Kminus": _from_csr(root @ a),
        "K0": OperatorMatrix.from_bands({0: diag}, n_dim, hermitian=True),
    }


def commutator_residuals(params: RepParams) -> dict:
    """Max deviation of [K0,K1]=iK2, [K0,K2]=-iK1, [K1,K2]=-iK0 on the
    interior block, plus the Casimir deviation there.  Runs on the sparse
    bands in O(N) time and memory."""
    g = _sparse_generators(params)
    m = params.interior_dim
    k0, k1, k2 = g["K0"], g["K1"], g["K2"]

    def comm(x, y):
        return x @ y - y @ x

    def interior_max(r):
        dev = float(abs(r[:m, :m]).max())
        if not math.isfinite(dev):
            raise ValueError(f"operator products overflow at k = {params.k:g}")
        return dev

    r1 = comm(k0, k1) - 1j * k2
    r2 = comm(k0, k2) + 1j * k1
    r3 = comm(k1, k2) + 1j * k0
    cas = _sparse_casimir(g) - casimir_eigenvalue(params.k) * _identity(params.cutoff)
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
