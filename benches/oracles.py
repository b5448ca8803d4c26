"""Oracles and the checker.  Nothing here runs inside the timed region.

The oracles are independent of the program's algorithms: mpmath at
`DPS` digits, the Bessel ratio I_2k/I_2k-1 for the BG mean of K0, direct
high-precision summation of the number-basis series (never `mpmath.nsum`,
which returns garbage for the BG inverse square root at |z| ~ 300), and exact
band structure for the truncated matrices.

Each oracle maps an output name to (exact value, floor): the relative error is
|got - exact| / max(|exact|, floor, TINY), so that a component that is zero by
symmetry is judged against the size of the state rather than against zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln

DPS = 34
TINY = 1e-280  # below this both values count as underflowed to zero
DIGITS_CAP = 16.0
TAIL_TOL = 1e-8  # the library's state-vector tolerance (coherent.TAIL_TOL)

RTOL = {
    "moments_sweep": 1e-8,  # closed forms; the library's own tests use 1e-8 to 1e-12
    "matrix_audit": 1e-12,  # banded dense products: rounding only
    "state_oracle": 1e-7,  # state vectors truncated at tail norm 1e-8
}


# ------------------------------------------------------------------ series


def _direct_sum(ratio, weights, extra=40):
    """sum_n t_n * w(n) for each weight w, with t_0 = 1 and t_{n+1} = t_n *
    ratio(n); stops once the terms fall `extra` digits below the running sum
    after their peak."""
    sums = [mp.mpf(0)] * len(weights)
    t = mp.mpf(1)
    n = 0
    eps = mp.mpf(10) ** (-extra)
    peak = mp.mpf(0)
    while True:
        for i, w in enumerate(weights):
            sums[i] += t * w(n)
        at = abs(t)
        peak = max(peak, at)
        if n > 8 and at < peak and at < eps * abs(sums[0]):
            return sums
        t *= ratio(n)
        n += 1


def bg_series(k, r):
    """Number distribution |z|^2n / ((2k)_n n!) of a BG state: returns
    g_k(|z|^2) and <(K0 + k)^(-1/2)> by direct summation."""
    k, r2 = mp.mpf(k), mp.mpf(r) ** 2
    g, inv = _direct_sum(lambda n: r2 / ((2 * k + n) * (n + 1)),
                         [lambda n: 1, lambda n: 1 / mp.sqrt(2 * k + n)])
    return g, inv / g


def bessel_ratio(k, r):
    """rho_k(|z|) = I_2k(2|z|) / I_2k-1(2|z|)."""
    k, y = mp.mpf(k), 2 * mp.mpf(r)
    return mp.besseli(2 * k, y) / mp.besseli(2 * k - 1, y)


def sg_h(k, x):
    """h1 = <sqrt(N+2k)>, h2 = <sqrt((N+2k)(N+2k+1))> under Poisson(x), summed
    over the window that holds all but ~1e-22 of the weight."""
    k, x = mp.mpf(k), mp.mpf(x)
    width = 10 * mp.sqrt(x + 1) + 30
    n0 = int(max(0, mp.floor(x - width)))
    n1 = int(mp.ceil(x + width))
    t = mp.exp(-x + n0 * mp.log(x) - mp.loggamma(n0 + 1)) if x > 0 else mp.mpf(1)
    h1 = h2 = mp.mpf(0)
    s = mp.sqrt(2 * k + n0)
    for n in range(n0, n1 + 1):
        s_next = mp.sqrt(2 * k + n + 1)  # sqrt(a(a+1)) = sqrt(a) sqrt(a+1)
        ts = t * s
        h1 += ts
        h2 += ts * s_next
        t = t * x / (n + 1)
        s = s_next
    return h1, h2


def _log_max_term(k, au, sign):
    """log of the largest |term| of sum_n (2k)_n^(sign/2) au^n / n!."""
    if au <= 0:
        return 0.0
    k = float(k)
    peak = au * au if sign > 0 else au ** (2.0 / 3.0)
    n = np.arange(int(2 * peak) + 100, dtype=float)
    logs = n * math.log(au) + 0.5 * sign * (gammaln(2 * k + n) - gammaln(2 * k)) \
        - gammaln(n + 1)
    return float(np.max(logs))


def _cancelling_sum(log_max_term, terms):
    """Sum a series whose terms may cancel: carry enough digits to cover the
    largest term, and more again if the sum still comes out small."""
    extra = max(0, int(log_max_term / math.log(10))) + 10
    for _ in range(4):
        with mp.workdps(DPS + extra):
            s = terms()
        lost = -int(mp.floor(mp.log10(abs(s)))) if s != 0 else DPS
        if lost <= 5:
            break
        extra += lost + 10
    return s


def cross_C(k, u):
    """C_k(u) = sum_n u^n / (sqrt((2k)_n) n!)."""
    log_max = _log_max_term(k, float(abs(u)), -1)
    k, u = mp.mpf(k), mp.mpc(u)
    return _cancelling_sum(log_max, lambda: _direct_sum(
        lambda n: u / ((n + 1) * mp.sqrt(2 * k + n)), [lambda n: 1])[0])


def cross_D(k, u):
    """D_k(u) = sum_n sqrt((2k)_n) u^n / n!."""
    log_max = _log_max_term(k, float(abs(u)), 1)
    k, u = mp.mpf(k), mp.mpc(u)
    return _cancelling_sum(log_max, lambda: _direct_sum(
        lambda n: u * mp.sqrt(2 * k + n) / (n + 1), [lambda n: 1])[0])


# ----------------------------------------------------------------- oracles


def sweep_oracle(op):
    fam, k = op.family, mp.mpf(op.k)
    x = mp.mpc(op.params["x"])
    r = abs(x)
    ph = mp.arg(x)
    c, s = mp.cos(ph), mp.sin(ph)
    if fam == "bg":
        rho = bessel_ratio(k, r)
        k0 = k + r * rho
        _, inv_sqrt = bg_series(k, r)
        lin, quad = k0, k0 * k0
        out = {
            "K0": k0, "K0_sq": k * k + r * r + r * rho,
            "var_K0": r * r * (1 - rho * rho) + (1 - 2 * k) * r * rho,
            "Nbar": r * rho, "R": 1 / rho ** 2 - 2 * k / (r * rho) - 1,
            "Q": r * (1 / rho - rho) - 2 * k,
            "K1": r * c, "K2": -r * s,
            "K1_sq": r * r * c * c + k0 / 2, "K2_sq": r * r * s * s + k0 / 2,
            "var_K1": k0 / 2, "var_K2": k0 / 2,
            "anticomm_K1K2": -r * r * mp.sin(2 * ph), "S_corr": mp.mpf(0),
            "E_inv": rho / r, "a_expect": x * inv_sqrt,
        }
        out["var_N"] = out["var_K0"]
    elif fam == "perelomov":
        d = 1 - r * r
        k0 = k * (1 + r * r) / d
        var0 = 2 * k * r * r / d ** 2
        k1, k2 = 2 * k * r * c / d, -2 * k * r * s / d
        v1 = k * abs(1 + x * x) ** 2 / (2 * d * d)
        v2 = k * abs(1 - x * x) ** 2 / (2 * d * d)
        sc = -k * r * r * mp.sin(2 * ph) / d ** 2
        lin, quad = k0, k0 * k0
        out = {
            "K0": k0, "K0_sq": k0 * k0 + var0, "var_K0": var0, "Nbar": k0 - k,
            "var_N": var0, "R": 1 / (2 * k), "Q": (k0 - k) / (2 * k),
            "K1": k1, "K2": k2, "K1_sq": v1 + k1 * k1, "K2_sq": v2 + k2 * k2,
            "var_K1": v1, "var_K2": v2, "S_corr": sc,
            "sum_sq_identity": mp.mpf(0), "fluct_identity": mp.mpf(0),
            "schwarz_defect": v1 * v2 - k0 * k0 / 4 - sc * sc,
        }
        floors = {"sum_sq_identity": 2 * quad, "fluct_identity": v1 + v2,
                  "schwarz_defect": v1 * v2 + quad}
    else:
        xx = r * r
        h1, h2 = sg_h(k, xx)
        h = xx * xx / 2 - (h2 - 2 * k - 1) * xx / 2 + k / 2
        diff = h2 - h1 * h1
        lin, quad = r * h1 + xx + k, xx * h2 + h
        out = {
            "K1": r * c * h1, "K2": -r * s * h1, "K0": xx + k, "var_K0": xx,
            "K1_sq": xx * c * c * h2 + h, "K2_sq": xx * s * s * h2 + h,
            "var_K1": xx * c * c * diff + h, "var_K2": xx * s * s * diff + h,
            "S_corr": -xx * mp.sin(2 * ph) * diff / 2,
            "h1": h1, "h2": h2, "h": h, "Nbar": xx,
        }
    quad_keys = {"K0_sq", "K1_sq", "K2_sq", "anticomm_K1K2", "S_corr"}
    table = {}
    for key, val in out.items():
        if fam == "perelomov" and key in floors:
            floor = floors[key]
        elif key in ("R", "Q"):
            floor = 1
        elif key in ("E_inv", "a_expect", "h1", "h2", "h"):
            floor = 0
        else:
            floor = quad if key in quad_keys else lin
        table[key] = (val, floor)
    return table


def audit_oracle(op):
    """Every deviation is zero in exact arithmetic; the floor is the size of
    the entries it is made of."""
    n_dim, k = op.params["N"], op.k
    lin = n_dim + k
    floors = {"hp_dev": lin, "casimir_interior_dev": lin * lin,
              "comm_K0_K1": lin * lin, "comm_K0_K2": lin * lin,
              "comm_K1_K2": lin * lin, "casimir": lin * lin,
              "Q_dev": math.sqrt(n_dim), "P_dev": math.sqrt(n_dim)}
    table = {key: (mp.mpf(0), floor) for key, floor in floors.items()}
    table["interior_dim"] = (mp.mpf(n_dim - 2), 1)
    return table


def _g(k, w):
    return mp.hyp0f1(2 * mp.mpf(k), w)


def state_oracle(op, outputs, vectors):
    fam, k = op.family, mp.mpf(op.k)
    par = {name: mp.mpc(val) for name, val in op.params.items()}
    table = {}
    x = par[{"bg": "z", "perelomov": "lam", "sg": "alpha"}[fam]]
    r = abs(x)
    if fam == "bg":
        k0 = k + r * bessel_ratio(k, r) if r > 0 else k
        k1, k2 = mp.re(x), -mp.im(x)
        log_norm = mp.log(_g(k, r * r))

        def coeff(n):
            return mp.exp(n * mp.log(r) - (mp.log(mp.rf(2 * k, n)) + mp.loggamma(n + 1)
                                          + log_norm) / 2) * mp.expjpi(n * mp.arg(x) / mp.pi)
    elif fam == "perelomov":
        d = 1 - r * r
        k0 = k * (1 + r * r) / d
        k1, k2 = 2 * k * mp.re(x) / d, -2 * k * mp.im(x) / d

        def coeff(n):
            return mp.exp(k * mp.log(d) + n * mp.log(r) + (mp.log(mp.rf(2 * k, n))
                                                            - mp.loggamma(n + 1)) / 2) \
                * mp.expjpi(n * mp.arg(x) / mp.pi)
    else:
        k0 = r * r + k
        h1, _ = sg_h(k, r * r)
        k1, k2 = mp.re(x) * h1, -mp.im(x) * h1

        def coeff(n):
            return mp.exp(-r * r / 2 + n * mp.log(r) - mp.loggamma(n + 1) / 2) \
                * mp.expjpi(n * mp.arg(x) / mp.pi)

    for name, val in (("vec_K0", k0), ("vec_K1", k1), ("vec_K2", k2)):
        if name in outputs:
            table[name] = (val, k0)
    vec = vectors.get("state")
    if vec is not None and not vec["zero"]:
        for n in vec["samples"]:
            table[f"coeff_{n}"] = (coeff(n), 0)

    z, z2 = par["z"], par["z2"]
    if "bg_overlap" in outputs:
        ov = _g(k, mp.conj(z2) * z) / mp.sqrt(_g(k, abs(z2) ** 2) * _g(k, abs(z) ** 2))
        table["bg_overlap"] = (ov, 0)
    if "cross_C_k" in outputs:
        alpha, lam, z = par["alpha_x"], par["lam"], par["z_x"]
        ck = cross_C(k, mp.conj(alpha) * z)
        dk = cross_D(k, mp.conj(alpha) * lam)
        inv_root_g = 1 / mp.sqrt(_g(k, abs(z) ** 2))
        gauss = mp.exp(-abs(alpha) ** 2 / 2)
        lam_pow = (1 - abs(lam) ** 2) ** k
        table.update({
            "cross_C_k": (ck, 0), "cross_D_k": (dk, 0),
            "cross_overlap_az": (gauss * ck * inv_root_g, 0),
            "cross_overlap_al": (gauss * lam_pow * dk, 0),
            "cross_overlap_lz": (lam_pow * mp.exp(mp.conj(lam) * z) * inv_root_g, 0),
        })
    return table


# ----------------------------------------------------------------- checker


@dataclass
class Verdict:
    """Outcome of one op: `cls` is None when it passed, else "raise",
    "nonfinite", "bad_vector" or "out_of_tol"; `digits` lists -log10(relative error) of every checked output."""

    cls: str | None
    digits: list
    detail: str = ""


def _rel_err(got, exact, floor) -> float:
    if abs(exact) < TINY and abs(got) < TINY:
        return 0.0
    denom = max(abs(exact), mp.mpf(floor), TINY)
    return float(abs(mp.mpc(got) - exact) / denom)


def _digits(err: float) -> float:
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def _finite(val) -> bool:
    return bool(np.isfinite(complex(val)))


def check(workload: str, op, result) -> Verdict:
    """Classify one op: raise, non-finite output, zero or defective state
    vector, or out of the oracle's tolerance (in that order of precedence)."""
    if result.errors:
        part, name, _ = result.errors[0]
        return Verdict("raise", [], f"{part}: {name}")
    bad = [key for key, val in result.outputs.items() if not _finite(val)]
    if bad:
        return Verdict("nonfinite", [], ",".join(bad))
    for vec in result.vectors.values():
        if vec["zero"] or not vec["norm_defect"] <= TAIL_TOL:
            return Verdict("bad_vector", [], f"norm_defect={vec['norm_defect']:.3g}")
    with mp.workdps(DPS):
        if workload == "moments_sweep":
            table = sweep_oracle(op)
        elif workload == "matrix_audit":
            table = audit_oracle(op)
        else:
            table = state_oracle(op, result.outputs, result.vectors)
        got = dict(result.outputs)
        for vec in result.vectors.values():
            got.update({f"coeff_{n}": c for n, c in vec["samples"].items()})
        missing = sorted(set(table) ^ set(got))
        if missing:
            return Verdict("out_of_tol", [], "unchecked or missing: " + ",".join(missing))
        errs = {key: _rel_err(got[key], *table[key]) for key in table}
    digits = [_digits(e) for e in errs.values()]
    worst = max(errs, key=errs.get)
    if errs[worst] > RTOL[workload]:
        return Verdict("out_of_tol", digits, f"{worst}: rel err {errs[worst]:.3g}")
    return Verdict(None, digits)
