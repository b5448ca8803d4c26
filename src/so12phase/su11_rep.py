"""Truncated number-basis realization of the positive discrete series.

The generator K0 is diagonal with spectrum {k+n}, the ladder operators carry
the square-root matrix elements of the discrete series with all phases fixed
to one, and composite oscillator operators are assembled from them.  Because
the basis is truncated at dimension N, operator identities that mix raising
and lowering are exact only on the interior block (indices 0..N-3); every
checker in this module reports that block size.

Every operator is banded: an `OperatorMatrix` keeps its nonzero diagonals,
and every product and linear combination is formed on those bands (`_product`,
`_combine`) in O(N) time; only the read-only `entries` handed to callers are
dense.  The dtype follows the bands: the Casimir and every operator built from
real bands are stored as float64, and only K2 and the composite momentum, which
have an imaginary band, as complex128.  Each adjoint pair (K+ and K-, built
either way, and the composite a and a+) shares one dense array: K- and a+ are
the transposed views `adjoint()` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .special_fn import DomainError, check_k, check_n

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
        check_k(self.k)
        if not hasattr(type(self.cutoff), "__index__") or self.cutoff < 4:
            raise DomainError(f"cutoff must be an integer of at least 4, not {self.cutoff!r}")

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
    """Matrix in the number basis, stored by its nonzero diagonals.

    `bands` maps an offset d to entries[i, i+d].  The dtype follows the
    data: float64 when every band is real, complex128 otherwise.  A matrix
    flagged hermitian that is not, or holds a non-finite entry, raises
    ValueError.  Built by `from_bands` or `adjoint` only, with read-only entries
    and bands, as a matrix and its adjoint may share them.  Matrices compare by identity."""

    entries: np.ndarray
    hermitian: bool
    bands: MappingProxyType = field(repr=False)

    def __post_init__(self):
        for v in (self.entries, *self.bands.values()):
            v.flags.writeable = False
        object.__setattr__(self, "bands", MappingProxyType(self.bands))
        if self.hermitian:  # np.max keeps a nan; a non-finite scale skips inf - inf
            scale = np.max([np.max(np.abs(v)) for v in self.bands.values()], initial=0.0)
            dev = max((np.max(np.abs(v - np.conj(self.bands.get(-d, 0.0))))
                       for d, v in self.bands.items()), default=0.0) if math.isfinite(scale) else math.nan
            if not dev <= HERMITICITY_TOL * max(1.0, scale):
                raise ValueError(f"hermitian flag set but deviation {dev:g} at scale {scale:g}")

    @classmethod
    def from_bands(cls, bands: dict, dim: int, hermitian: bool = False) -> "OperatorMatrix":
        """The dim x dim matrix whose diagonal d holds bands[d], copied read-only and made dense."""
        bands = {d: np.array(v) for d, v in bands.items()}
        entries = np.zeros((dim, dim), dtype=np.result_type(float, *bands.values()))
        for d, v in bands.items():  # a strided view of one diagonal
            if not (abs(d) < dim and len(v) == dim - abs(d)):
                raise ValueError(f"band {d} of length {len(v)} does not fit a {dim} x {dim} matrix")
            entries.reshape(-1)[max(d, -d * dim)::dim + 1][:len(v)] = v
        return cls(entries, hermitian, bands)

    def adjoint(self) -> "OperatorMatrix":
        """The Hermitian adjoint, bands {-d: conj(v)}: for a real matrix a
        transposed view of the same memory, for a complex one a new array."""
        entries = self.entries.conj().T  # conj() of a real array is the array itself
        return OperatorMatrix(entries, self.hermitian, {-d: v.conj() for d, v in self.bands.items()})

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
    """K0, K+, K-, K1, K2 on the truncated basis (see `_generator_bands`);
    K- is K+'s adjoint and shares its memory."""
    g = {name: OperatorMatrix.from_bands(bands, params.cutoff, hermitian=name in ("K0", "K1", "K2"))
         for name, bands in _generator_bands(params).items() if name != "Kminus"}
    return {**g, "Kminus": g["Kplus"].adjoint()}


def _rows(band: np.ndarray, d: int, lo: int, hi: int) -> np.ndarray:
    """View of the entries [i, i+d] of band d for rows lo <= i < hi."""
    return band[lo - max(0, -d):hi - max(0, -d)]


def _product(a: dict, b: dict, dim: int) -> dict:
    """Bands of A @ B: (AB)[i, i+da+db] += A[i, i+da] * B[i+da, i+da+db], one
    slice product per pair of bands, each entry summed in ascending da.
    The bands are real when all of A's and B's are.  Overflow is left to the
    callers' finiteness checks."""
    out, dtype = {}, np.result_type(float, *a.values(), *b.values())
    with np.errstate(over="ignore", invalid="ignore"):
        for da in sorted(a):
            for db, vb in b.items():
                d = da + db
                lo, hi = max(0, -da, -d), min(dim, dim - da, dim - d)  # rows all three bands reach
                if lo < hi:
                    acc = _rows(out.setdefault(d, np.zeros(dim - abs(d), dtype=dtype)), d, lo, hi)
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
    """K1^2 + K2^2 - K0^2, with K1^2 + K2^2 formed as (K+K- + K-K+)/2: the
    same matrix, truncated or not, from real bands only."""
    kp, km, k0 = g["Kplus"], g["Kminus"], g["K0"]
    return _combine((0.5, _product(kp, km, dim)), (0.5, _product(km, kp, dim)),
                    (-1, _product(k0, k0, dim)))


def casimir(params: RepParams) -> OperatorMatrix:
    """K1^2 + K2^2 - K0^2; equals k(1-k) times the identity on the interior."""
    bands = _casimir_bands(_generator_bands(params), params.cutoff)
    return OperatorMatrix.from_bands(bands, params.cutoff, hermitian=True)


def casimir_eigenvalue(k: float) -> float:
    """Closed form k(1-k): zero only at k=1, maximal 1/4 at k=1/2."""
    check_k(k)
    return k * (1.0 - k)


def _composite_bands(params: RepParams) -> tuple:
    """The generator bands and those of a and a+ of `composite_ladder`."""
    g = _generator_bands(params)
    a = _product({0: 1.0 / np.sqrt(g["K0"][0] + params.k)}, g["Kminus"], params.cutoff)
    return g, a, {-d: v.conj() for d, v in a.items()}  # a+ = K+ (K0+k)^{-1/2} is a's adjoint


def composite_ladder(params: RepParams) -> dict:
    """Oscillator operators a = (K0+k)^{-1/2} K-, a+ = K+ (K0+k)^{-1/2},
    N = K0 - k built inside the representation; a+ is a's adjoint and shares
    its memory."""
    g, a, _ = _composite_bands(params)
    a = OperatorMatrix.from_bands(a, params.cutoff)
    return {"a": a, "a_dag": a.adjoint(),
            "Nop": OperatorMatrix.from_bands({0: g["K0"][0] - params.k}, params.cutoff, hermitian=True)}


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
    check_k(k)
    check_n(n)
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
    check_n(n1)
    check_n(n2)
    ks = list(k_sequence)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("k values must increase")
    rows = []
    for k in ks:
        check_k(k)
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
    """Bands of the standard truncated oscillator a, a+ on n_dim >= 1 levels."""
    if not (hasattr(type(n_dim), "__index__") and n_dim >= 1):
        raise DomainError(f"n_dim must be a positive integer, not {n_dim!r}")
    root = np.sqrt(np.arange(1, n_dim))
    return {1: root}, {-1: root}


def holstein_primakoff(params: RepParams) -> dict:
    """K+, K-, K0 assembled the other way round: from oscillator matrices
    via K+ = a+ sqrt(N+2k), and K- = K+'s adjoint, which shares its memory;
    entrywise equal to build_generators output."""
    n_dim = params.cutoff
    root = {0: np.sqrt(np.arange(n_dim) + 2.0 * params.k)}
    kplus = OperatorMatrix.from_bands(_product(oscillator_ladder(n_dim)[1], root, n_dim), n_dim)
    return {"Kplus": kplus, "Kminus": kplus.adjoint(),
            "K0": OperatorMatrix.from_bands(_generator_bands(params)["K0"], n_dim, hermitian=True)}


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
    """JSON-ready bands, offset -> [[re, im], ...], from which `from_bands` rebuilds the operator."""
    return {"dim": op.dim, "hermitian": bool(op.hermitian),
            "bands": {str(d): [[float(z.real), float(z.imag)] for z in v] for d, v in op.bands.items()}}
