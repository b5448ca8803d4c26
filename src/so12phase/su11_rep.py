"""Truncated number-basis realization of the positive discrete series.

The generator K0 is diagonal with spectrum {k+n}, the ladder operators carry
the square-root matrix elements of the discrete series with all phases fixed
to one, and composite oscillator operators are assembled from them.  Because
the basis is truncated at dimension N, operator identities that mix raising
and lowering are exact only on the interior block (indices 0..N-3); every
checker in this module reports that block size.
"""

from __future__ import annotations

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
        if self.k <= 0:
            raise ValueError("Bargmann index k must be positive")
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")

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
    """Dense complex matrix in the number basis with hermiticity metadata."""

    entries: np.ndarray
    hermitian: bool = field(default=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", arr)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("OperatorMatrix must be square")
        if self.hermitian:
            dev = np.max(np.abs(arr - arr.conj().T))
            if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(arr))):
                raise ValueError(f"hermitian flag set but deviation {dev:g}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other):
        o = other.entries if isinstance(other, OperatorMatrix) else other
        return self.entries @ o

    def expectation(self, vec: np.ndarray) -> complex:
        return complex(np.vdot(vec, self.entries @ vec))


def build_generators(params: RepParams) -> dict:
    """K0, K+, K-, K1, K2 on the truncated basis.

    K0 = diag(k+n); <k,n+1|K+|k,n> = sqrt((2k+n)(n+1)); K- = K+^dagger;
    K1 = (K+ + K-)/2 and K2 = (K+ - K-)/(2i).
    """
    k, n_dim = params.k, params.cutoff
    n = np.arange(n_dim)
    k0 = np.diag((k + n).astype(complex))
    kplus = np.zeros((n_dim, n_dim), dtype=complex)
    sub = np.sqrt((2 * k + n[:-1]) * (n[:-1] + 1))
    kplus[n[:-1] + 1, n[:-1]] = sub
    kminus = kplus.conj().T
    k1 = 0.5 * (kplus + kminus)
    k2 = (kplus - kminus) / 2j
    return {
        "K0": OperatorMatrix(k0, hermitian=True),
        "Kplus": OperatorMatrix(kplus),
        "Kminus": OperatorMatrix(kminus),
        "K1": OperatorMatrix(k1, hermitian=True),
        "K2": OperatorMatrix(k2, hermitian=True),
    }


def casimir(params: RepParams) -> OperatorMatrix:
    """K1^2 + K2^2 - K0^2; equals k(1-k) times the identity on the interior."""
    g = build_generators(params)
    ent = g["K1"] @ g["K1"] + g["K2"] @ g["K2"] - g["K0"] @ g["K0"]
    return OperatorMatrix(ent, hermitian=True)


def casimir_eigenvalue(k: float) -> float:
    """Closed form k(1-k): zero only at k=1, maximal 1/4 at k=1/2."""
    return k * (1.0 - k)


def composite_ladder(params: RepParams) -> dict:
    """Oscillator operators a = (K0+k)^{-1/2} K-, a+ = K+ (K0+k)^{-1/2},
    N = K0 - k built inside the representation."""
    k, n_dim = params.k, params.cutoff
    g = build_generators(params)
    dinv = 1.0 / np.sqrt(k + np.arange(n_dim) + k).astype(complex)
    a = dinv[:, None] * g["Kminus"].entries
    a_dag = g["Kplus"].entries * dinv[None, :]
    nop = g["K0"].entries - k * np.eye(n_dim)
    return {
        "a": OperatorMatrix(a),
        "a_dag": OperatorMatrix(a_dag),
        "Nop": OperatorMatrix(nop, hermitian=True),
    }


def composite_qp(params: RepParams) -> dict:
    """Composite position and momentum (a+ + a)/sqrt2, i(a+ - a)/sqrt2.

    Their matrix elements are k-independent even though a, a+ are built
    from the k-dependent generators.
    """
    lad = composite_ladder(params)
    q = (lad["a_dag"].entries + lad["a"].entries) / np.sqrt(2.0)
    p = 1j * (lad["a_dag"].entries - lad["a"].entries) / np.sqrt(2.0)
    return {
        "Qtilde": OperatorMatrix(q, hermitian=True),
        "Ptilde": OperatorMatrix(p, hermitian=True),
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


def oscillator_ladder(n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard truncated oscillator a, a+ matrices."""
    a = np.zeros((n_dim, n_dim), dtype=complex)
    n = np.arange(1, n_dim)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def holstein_primakoff(params: RepParams) -> dict:
    """K+, K-, K0 assembled the other way round: from oscillator matrices
    via K+ = a+ sqrt(N+2k); entrywise equal to build_generators output."""
    k, n_dim = params.k, params.cutoff
    a, a_dag = oscillator_ladder(n_dim)
    root = np.sqrt(np.arange(n_dim) + 2.0 * k).astype(complex)
    kplus = a_dag * root[None, :]
    kminus = root[:, None] * a
    k0 = np.diag((np.arange(n_dim) + k).astype(complex))
    return {
        "Kplus": OperatorMatrix(kplus),
        "Kminus": OperatorMatrix(kminus),
        "K0": OperatorMatrix(k0, hermitian=True),
    }


def commutator_residuals(params: RepParams) -> dict:
    """Max deviation of [K0,K1]=iK2, [K0,K2]=-iK1, [K1,K2]=-iK0 on the
    interior block, plus the Casimir deviation there."""
    g = build_generators(params)
    m = params.interior_dim
    k0, k1, k2 = g["K0"].entries, g["K1"].entries, g["K2"].entries

    def comm(x, y):
        return x @ y - y @ x

    r1 = comm(k0, k1) - 1j * k2
    r2 = comm(k0, k2) + 1j * k1
    r3 = comm(k1, k2) + 1j * k0
    cas = casimir(params).entries - casimir_eigenvalue(params.k) * np.eye(params.cutoff)
    block = (slice(0, m), slice(0, m))
    return {
        "comm_K0_K1": float(np.max(np.abs(r1[block]))),
        "comm_K0_K2": float(np.max(np.abs(r2[block]))),
        "comm_K1_K2": float(np.max(np.abs(r3[block]))),
        "casimir": float(np.max(np.abs(cas[block]))),
        "interior_dim": m,
    }


def serialize_operator(op: OperatorMatrix) -> dict:
    """Row-major [re, im] pair serialization used by the file exports."""
    return {
        "dim": op.dim,
        "hermitian": bool(op.hermitian),
        "entries": [[float(z.real), float(z.imag)] for z in op.entries.ravel()],
    }
