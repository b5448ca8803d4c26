"""The three workloads: seeded, stratified inputs and the ops that call the
program under test.

A batch holds one op per stratum.  The strata of a workload are fixed, so a
seed changes the values drawn inside each stratum and the order of the ops,
never the mix.  A run executes whole batches, so every run has the same mix.

Every op calls the program through module attributes looked up at call time
(`co.bg_expectations`, not a name imported once), so that the tracer can wrap
them.  Library calls run inside `sw` (a Stopwatch); the reductions that turn
large outputs into a few checkable numbers run outside it.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field

import numpy as np

from so12phase import coherent as co
from so12phase import su11_rep as su

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Domain:
    """Modulus range of one family's parameter, drawn uniformly in q on [0, 1)."""

    lo: float
    hi: float
    log: bool

    def at(self, q: float) -> float:
        if self.log:
            return self.lo * (self.hi / self.lo) ** q
        return self.lo + (self.hi - self.lo) * q


@dataclass(frozen=True)
class Op:
    """One closed-loop request: `family` is bg/perelomov/sg or `audit`."""

    family: str
    k: float
    params: dict
    stratum: tuple


@dataclass
class Result:
    """Small outputs of one op, kept for the oracle check after the run."""

    outputs: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    latency: float = 0.0  # seconds inside the program's calls
    factor: float = 1.0  # host speed around the op (hostspeed.py)


class Stopwatch:
    """Accumulates the time spent inside `with sw:` blocks.  `host`, if
    given, is told before and after each block so that it can sample the
    host's speed outside the timed time."""

    def __init__(self, host=None):
        self.elapsed = 0.0
        self._t0 = 0.0
        self._host = host

    def __enter__(self):
        if self._host is not None:
            self._host.before_timed()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self._t0
        self.elapsed += dt
        if self._host is not None:
            self._host.after_timed(dt)
        return False


def _call(res: Result, part: str, sw: Stopwatch, fn, *args):
    """Time one library call; a raise on in-domain input is recorded, not fatal."""
    try:
        with sw:
            return fn(*args)
    except Exception as exc:  # every exception class is a failure of the op
        res.errors.append((part, type(exc).__name__, str(exc)[:160]))
        return None


def _polar(mod: float, phase: float) -> complex:
    return mod * cmath.exp(1j * phase)


# ---------------------------------------------------------------- moments_sweep

SWEEP_K = (0.25, 0.5, 1.0, 3.0)
SWEEP_DOMAINS = {
    "bg": Domain(0.1, 300.0, True),  # about 1/3 of BG points take |z| > 20
    "perelomov": Domain(0.05, 0.95, False),
    "sg": Domain(0.1, 40.0, False),
}
SWEEP_BINS = 12
SWEEP_CALLS = {"bg": "bg_expectations", "perelomov": "perelomov_expectations",
               "sg": "sg_expectations"}


def sweep_batch(rng: np.random.Generator, bins: int, used: int) -> list[Op]:
    """`used` < `bins` keeps only the lowest bins: the tiny grid."""
    ops = []
    for family, dom in SWEEP_DOMAINS.items():
        for k in SWEEP_K:
            for b in range(used):
                mod = dom.at((b + rng.random()) / bins)
                par = _polar(mod, TWO_PI * rng.random())
                ops.append(Op(family, k, {"x": par}, (family, k, b)))
    return ops


def sweep_op(op: Op, sw: Stopwatch) -> Result:
    res = Result()
    fn = getattr(co, SWEEP_CALLS[op.family])
    out = _call(res, "moments", sw, fn, op.k, op.params["x"])
    if out is not None:
        res.outputs.update({key: val for key, val in out.items() if val is not None})
    return res


# ----------------------------------------------------------------- matrix_audit

AUDIT_K = SWEEP_K
# ops per batch at each cutoff: 1 MiB per dense matrix at N = 256 (fits in
# L2), 16 MiB at N = 1024, where the ten or so matrices an audit holds exceed
# the 105 MiB L3.  N = 2048 would take 30 s per op, a single op per run whose
# time swings by 30% with the shared host's speed; state_oracle still builds
# the generators at 2048.
AUDIT_MIX = {256: 6, 512: 2, 1024: 1}  # the median op sits inside the N = 256 group
AUDIT_MIX_TINY = {8: 6, 16: 2, 32: 1}


def audit_batch(rng: np.random.Generator, mix: dict) -> list[Op]:
    ops = []
    for n_dim, count in mix.items():
        ks = [AUDIT_K[(i + int(rng.integers(len(AUDIT_K)))) % len(AUDIT_K)]
              for i in range(count)]
        for i, k in enumerate(ks):
            ops.append(Op("audit", k, {"N": n_dim}, (n_dim, i)))
    return ops


def _band_ref(n_dim: int, imag: bool) -> np.ndarray:
    """Oscillator q = (a+ + a)/sqrt2 or p = i(a+ - a)/sqrt2, built directly."""
    ref = np.zeros((n_dim, n_dim), dtype=complex)
    n = np.arange(n_dim - 1)
    off = np.sqrt((n + 1) / 2.0)
    ref[n + 1, n] = 1j * off if imag else off
    ref[n, n + 1] = -1j * off if imag else off
    return ref


def audit_op(op: Op, sw: Stopwatch) -> Result:
    res = Result()
    k, n_dim = op.k, op.params["N"]
    params = su.RepParams(k, n_dim)
    m = params.interior_dim
    out = res.outputs

    gens = _call(res, "build_generators", sw, su.build_generators, params)
    hp = _call(res, "holstein_primakoff", sw, su.holstein_primakoff, params)
    if gens is not None and hp is not None:
        out["hp_dev"] = max(float(np.max(np.abs(hp[x].entries - gens[x].entries)))
                            for x in ("Kplus", "Kminus", "K0"))
    del gens, hp

    cas = _call(res, "casimir", sw, su.casimir, params)
    if cas is not None:
        target = su.casimir_eigenvalue(k) * np.eye(m)
        out["casimir_interior_dev"] = float(np.max(np.abs(cas.entries[:m, :m] - target)))
    del cas

    resid = _call(res, "commutator_residuals", sw, su.commutator_residuals, params)
    if resid is not None:
        out.update({key: resid[key] for key in
                    ("comm_K0_K1", "comm_K0_K2", "comm_K1_K2", "casimir")})
        out["interior_dim"] = resid["interior_dim"]

    qp = _call(res, "composite_qp", sw, su.composite_qp, params)
    if qp is not None:
        out["Q_dev"] = float(np.max(np.abs(qp["Qtilde"].entries - _band_ref(n_dim, False))))
        out["P_dev"] = float(np.max(np.abs(qp["Ptilde"].entries - _band_ref(n_dim, True))))
    return res


# ----------------------------------------------------------------- state_oracle

STATE_K = (0.25, 0.5, 1.0, 3.0, 10.0)
# The domain on which every op passes its oracle in the seed commit's
# program.  Beyond it lie the known defects (NOTES.md), which defects.py
# counts: bg_overlap raises OverflowError once |z2 z| > 90000 (|z| ~ 290),
# SG vectors come back zero from |alpha| ~ 31.3, and Perelomov raises
# CutoffExhausted above |lam| = sqrt(0.75).
STATE_DOMAINS = {
    "bg": Domain(0.1, 250.0, True),
    "perelomov": Domain(0.05, 0.85, False),
    "sg": Domain(0.1, 30.0, False),
}
# cross_overlaps gets its own alpha and z, at the same place in these
# smaller ranges and with the same phase as the state's.  cross_kernel_D
# loses the tolerance to cancellation for complex u = conj(alpha) lam
# between |u| = 2 and 3 at k = 10 (cross_kernel_C for |u| in the hundreds);
# here |u| <= 1.3 for D and conj(alpha) z <= 7.5 for C.
CROSS_DOMAINS = {
    "bg": Domain(0.1, 5.0, True),
    "sg": Domain(0.1, 1.5, False),
}
STATE_BINS = 8
STATE_CLASSES = {"bg": co.BGState, "perelomov": co.PerelomovState, "sg": co.SGState}
PARAM_NAME = {"bg": "z", "perelomov": "lam", "sg": "alpha"}


def state_batch(rng: np.random.Generator, bins: int, used: int) -> list[Op]:
    """Each op carries all three parameters, plus the smaller alpha and z
    that `cross_overlaps` takes (CROSS_DOMAINS).  Its family's parameter sits at
    the centre of the op's own bin; the other two sit at the centres of bins
    shifted by a fixed amount that differs per k.  The relative phases of the
    three parameters come from fixed sectors.  Both matter for cost and for
    pass or fail: the basis size jumps at thresholds in the modulus (a state
    at cutoff 2048 costs 500x one at 64), and the cross kernels cancel by an
    amount set by |u| and arg u.  So the seed moves moduli by only 0.1% and
    relative phases by only pi/64, and turns each op by a common phase drawn
    uniformly; it also draws the nearby point for `bg_overlap`.
    `used` < `bins` keeps only the lowest bins: the tiny grid."""
    ops = []
    names = list(STATE_DOMAINS)
    for family in names:
        for j, k in enumerate(STATE_K):
            for b in range(used):
                par = {}
                turn = TWO_PI * rng.random()
                for i, (other, dom) in enumerate(STATE_DOMAINS.items()):
                    shift = 0 if other == family else (j + 1) * (i + 1) + names.index(family)
                    q = ((b + shift) % used + 0.5) / bins
                    jitter = 1.0 + 1e-3 * (rng.random() - 0.5)
                    sector = (3 * b + j + i) % used
                    phase = turn + TWO_PI * sector / used + (rng.random() - 0.5) * math.pi / 64
                    par[PARAM_NAME[other]] = _polar(dom.at(q) * jitter, phase)
                    if other in CROSS_DOMAINS:
                        par[PARAM_NAME[other] + "_x"] = _polar(
                            CROSS_DOMAINS[other].at(q) * jitter, phase)
                # nearby point for bg_overlap: |dz| ~ sqrt(1+|z|) keeps the
                # overlap of order one across the whole |z| range
                z = par["z"]
                step = (0.1 + 0.9 * rng.random()) * math.sqrt(1.0 + abs(z))
                par["z2"] = z + _polar(step, TWO_PI * rng.random())
                ops.append(Op(family, k, par, (family, k, b)))
    return ops


def state_op(op: Op, sw: Stopwatch) -> Result:
    res = Result()
    k, par = op.k, op.params
    state = STATE_CLASSES[op.family](k, par[PARAM_NAME[op.family]])

    vec = _call(res, "amplitudes", sw, co.amplitudes, state)
    if vec is not None:
        coeffs = vec.coeffs
        peak = int(np.argmax(np.abs(coeffs)))
        res.vectors["state"] = {
            "cutoff": vec.cutoff,
            "norm_defect": vec.norm_defect(),
            "zero": not np.any(coeffs),
            "samples": {0: complex(coeffs[0]), peak: complex(coeffs[peak])},
        }
        gens = _call(res, "build_generators", sw, su.build_generators,
                     su.RepParams(k, vec.cutoff))
        if gens is not None:
            for name in ("K0", "K1", "K2"):
                val = _call(res, "expectation", sw, gens[name].expectation, coeffs)
                if val is not None:
                    res.outputs["vec_" + name] = val
        del gens

    val = _call(res, "bg_overlap", sw, co.bg_overlap, k, par["z2"], par["z"])
    if val is not None:
        res.outputs["bg_overlap"] = val
    out = _call(res, "cross_overlaps", sw, co.cross_overlaps,
                k, par["alpha_x"], par["z_x"], par["lam"])
    if out is not None:
        res.outputs.update({"cross_" + key: val for key, val in out.items()})
    return res


# -------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and NOTES.md."""

    batch: object  # (rng, tiny) -> list[Op]
    run: object  # (Op, Stopwatch) -> Result
    large_arrays: bool  # builds dense matrices of 16 MiB and more


WORKLOADS = {
    "moments_sweep": Workload(
        lambda rng, tiny: sweep_batch(rng, SWEEP_BINS, 1 if tiny else SWEEP_BINS),
        sweep_op, False),
    "matrix_audit": Workload(
        lambda rng, tiny: audit_batch(rng, AUDIT_MIX_TINY if tiny else AUDIT_MIX),
        audit_op, True),
    "state_oracle": Workload(
        lambda rng, tiny: state_batch(rng, STATE_BINS, 1 if tiny else STATE_BINS),
        state_op, True),
}


def batches(workload: Workload, seed: int, tiny: bool = False):
    """Endless stream of shuffled batches; the same seed gives the same stream."""
    rng = np.random.default_rng(seed)
    while True:
        ops = workload.batch(rng, tiny)
        order = rng.permutation(len(ops))
        yield [ops[i] for i in order]


def warm_up(workload: Workload) -> None:
    """One tiny batch with a fixed seed: first-call costs paid before timing.
    Workloads with large matrices also build once at cutoff 1024, because
    glibc raises its mmap threshold only after the first large free; without
    this the first batch of a run is about 10% slower than the rest."""
    rng = np.random.default_rng(0)
    for op in workload.batch(rng, True):
        workload.run(op, Stopwatch())
    if workload.large_arrays:
        su.build_generators(su.RepParams(1.0, 1024))
