"""Dump every public L0/L2 value and raise of `so12phase` on a fixed grid, and
diff two dumps: the comparison of a parent commit against a change.

    python tools/value_diff.py dump OUT [--src DIR] [--points N]
    python tools/value_diff.py diff A B

`dump` imports `so12phase` from DIR (default: the `src/` beside this
script) and evaluates, at each grid point (k, i) and three phases, every
family's state vector (its bytes, tail and cutoff), `number_prob`, the
moment dicts, `sg_sums`, `inv_sqrt_k0_expectation`, `bg_overlap`,
`cross_overlaps`, and the L0 kernels and family functions, and once the
family API at the edges of its domain (EDGE_CALLS).  The grid is k in K_GRID
times the i-th entry of each modulus list; `--points N` keeps N points spread
over it.  A call that raises is recorded by its error's type and message.
Floats are stored bit for bit (float.hex), arrays as compressed bytes, so
that `diff` can tell bit-identical values from moved ones.

`diff` prints, per function, how many values are bit-identical, how many
moved and the worst relative move (entries below 1e-280 on both sides are
skipped), and each call whose raise changed; a raise of the same type with a
new message counts as the same.  To compare a parent, dump it from a second
checkout: `dump parent.json --src ../parent/src`.  Only numpy and the
standard library are imported.
"""

from __future__ import annotations

import argparse
import base64
import cmath
import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np

K_GRID = (0.005, 0.05, 0.25, 0.5, 1.0, 3.0, 20.0, 200.0, 1000.0)
BG_MODULI = (0.0, 1e-3, 0.3, 1.0, 2.5, 5.0, 19.9, 20.5, 40.0, 100.0, 400.0, 1790.0)
LAMBDAS = (0.0, 1e-3, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999)
SG_MODULI = (0.0, 1e-3, 0.3, 1.0, 2.5, 5.0, 10.0, 20.0, 30.0, 40.0, 300.0, 440.0)
INV_MODULI = (0.0, 0.3, 5.0, 19.9, 20.0, 20.5, 30.0, 80.0)
PHASES = (0.0, 0.7, -2.3)
NS = (0, 1, 5, 50, 500)
# the family API at the edges of its domain, evaluated once
EDGE_CALLS = (("log_weight", ("bg", 1.0, math.nan, 3)), ("log_weight", ("bg", 1.0, -4.0, 3)),
              ("log_weight", ("bg", 1.0, math.inf, 3)), ("log_weight", ("bg", math.nan, 4.0, 3)),
              ("log_weight", ("bg", -1.0, 4.0, 3)), ("log_norm", ("sg", 1.0, -1.0)),
              ("log_norm", ("bg", math.nan, 1.0)), ("ratio_limit", ("bg", 1.0, math.nan)),
              ("ratio_limit", ("sg", 1.0, -1.0)), ("weight_table", ("bg", -2.0, 10)),
              ("log_norm", ("perelomov", 1.0, 1.0)), ("log_weight", ("BG", 1.0, 4.0, 3)))
SHOWN_RAISES = 12  # changed raises listed per function


def _encode(v):
    """A JSON-ready, bit-exact form of a result."""
    if isinstance(v, dict):
        return {str(key): _encode(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_encode(x) for x in v]
    if isinstance(v, np.ndarray):
        a = np.ascontiguousarray(v, dtype=complex if np.iscomplexobj(v) else float)
        return {"dtype": a.dtype.str, "shape": list(a.shape),
                "data": base64.b64encode(zlib.compress(a.tobytes())).decode()}
    if v is None:
        return None
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real).hex(), "im": float(v.imag).hex()}
    return {"f": float(v).hex()}


def _decode(v):
    """The result `_encode` stored: floats, complex numbers and arrays."""
    if isinstance(v, list):
        return [_decode(x) for x in v]
    if not isinstance(v, dict):
        return v
    if "f" in v and len(v) == 1:
        return float.fromhex(v["f"])
    if set(v) == {"re", "im"}:
        return complex(float.fromhex(v["re"]), float.fromhex(v["im"]))
    if set(v) == {"dtype", "shape", "data"}:
        raw = zlib.decompress(base64.b64decode(v["data"]))
        return np.frombuffer(raw, dtype=np.dtype(v["dtype"])).reshape(v["shape"])
    return {key: _decode(x) for key, x in v.items()}


def _calls(sf, co, points):
    """(function name, call label, thunk) for every value at `points`, and the
    EDGE_CALLS."""
    for name, args in EDGE_CALLS:
        yield name, args, lambda f=getattr(sf, name), a=args: f(*a)
    for k, i in points:
        x, lam, alpha = BG_MODULI[i], LAMBDAS[i], SG_MODULI[i]
        r2s = {"bg": x * x, "perelomov": lam * lam, "sg": alpha * alpha}
        yield "log_g_k", (k, x * x), lambda: sf.log_g_k(k, x * x)
        for name in ("rho_k", "rho_k_asymptotic", "rho_k_small_x"):
            yield name, (k, x), lambda f=getattr(sf, name): f(k, x)
        for fam, r2 in r2s.items():
            yield "log_weight", (fam, k, r2), lambda f=fam, r=r2: sf.log_weight(f, k, r, list(NS))
            yield "log_norm", (fam, k, r2), lambda f=fam, r=r2: sf.log_norm(f, k, r)
            yield "ratio_limit", (fam, k, r2), lambda f=fam, r=r2: sf.ratio_limit(f, k, r)
            yield "distribution", (fam, k, r2), lambda f=fam, r=r2: sf.distribution(f, k, r)
        yield "sg_sums", (k, alpha), lambda: co.sg_sums(k, alpha)
        yield "sg_asymptotics", (k, alpha), lambda: co.sg_asymptotics(k, alpha)
        z_inv = INV_MODULI[i % len(INV_MODULI)]
        yield "inv_sqrt_k0_expectation", (k, z_inv), lambda: co.inv_sqrt_k0_expectation(k, z_inv)
        for phi in PHASES:
            turn = cmath.exp(1j * phi)
            z, lp, a = x * turn, lam * turn, alpha * turn
            yield "g_k", (k, z * z), lambda: sf.g_k(k, z * z).value
            for state in (co.BGState(k, z), co.PerelomovState(k, lp), co.SGState(k, a)):
                label = (state.FAMILY, k, state.parameter)
                yield "amplitudes", label, lambda s=state: _vector(co.amplitudes(s))
                yield "number_prob", label, lambda s=state: [co.number_prob(s, n) for n in NS]
            yield "bg_expectations", (k, z), lambda: co.bg_expectations(k, z)
            yield "perelomov_expectations", (k, lp), lambda: co.perelomov_expectations(k, lp)
            yield "sg_expectations", (k, a), lambda: co.sg_expectations(k, a)
            z_other = BG_MODULI[(i + 5) % len(BG_MODULI)] * cmath.exp(-1j * phi)
            yield "bg_overlap", (k, z_other, z), lambda: co.bg_overlap(k, z_other, z)
            yield "cross_overlaps", (k, a, z, lp), lambda: co.cross_overlaps(k, a, z, lp)


def _vector(vec) -> dict:
    return {"coeffs": vec.coeffs, "tail": vec.tail_norm, "cutoff": vec.cutoff}


def dump(out: str, src: str, n_points: int | None) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from so12phase import coherent as co
    from so12phase import special_fn as sf

    points = [(k, i) for k in K_GRID for i in range(len(BG_MODULI))]
    if n_points:
        points = [points[j * len(points) // n_points] for j in range(n_points)]
    record: dict = {}
    for name, args, thunk in _calls(sf, co, points):
        try:
            result = {"value": _encode(thunk())}
        except Exception as exc:  # every raise is a recorded outcome
            result = {"raise": type(exc).__name__, "msg": str(exc)}
        record.setdefault(name, {})[repr(args)] = result
    Path(out).write_text(json.dumps(record))


def _worst_move(a, b) -> float:
    """The largest relative difference between two decoded results; inf where
    their structure differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return math.inf
        return max((_worst_move(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((_worst_move(x, y) for x, y in zip(a, b)), default=0.0)
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return math.inf
    scale = np.maximum(np.abs(a), np.abs(b))
    check = ~((a == b) | (np.isnan(a) & np.isnan(b)) | (scale <= 1e-280))
    if not check.any():
        return 0.0
    with np.errstate(invalid="ignore"):  # a nan or inf on one side moves by inf
        rel = np.abs(a - b)[check] / scale[check]
    return float(np.max(np.nan_to_num(rel, nan=math.inf)))


def diff(path_a: str, path_b: str) -> dict:
    """Per function: (same, moved, worst relative move, [changed raises]),
    printed as a table."""
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    summary = {}
    for name in sorted(set(a) | set(b)):
        same = moved = 0
        worst = 0.0
        raises = []
        calls_a, calls_b = a.get(name, {}), b.get(name, {})
        for call in sorted(set(calls_a) | set(calls_b)):
            ra, rb = calls_a.get(call), calls_b.get(call)
            if ra == rb or (ra and rb and "raise" in ra and ra["raise"] == rb.get("raise")):
                same += 1  # bit-identical, or the same error reworded
            elif ra and rb and "value" in ra and "value" in rb:
                moved += 1
                worst = max(worst, _worst_move(_decode(ra["value"]), _decode(rb["value"])))
            else:
                raises.append((call, _outcome(ra), _outcome(rb)))
        summary[name] = (same, moved, worst, raises)
    print(f"{'function':26s} {'same':>6s} {'moved':>6s} {'worst rel':>10s} {'raises':>6s}")
    for name, (same, moved, worst, raises) in summary.items():
        print(f"{name:26s} {same:6d} {moved:6d} {worst:10.2e} {len(raises):6d}")
    for name, (_, _, _, raises) in summary.items():
        for call, was, now in raises[:SHOWN_RAISES]:
            print(f"  {name}{call}: {was} -> {now}")
        if len(raises) > SHOWN_RAISES:
            print(f"  {name}: {len(raises) - SHOWN_RAISES} more")
    return summary


def _outcome(result) -> str:
    if result is None:
        return "absent"
    return result.get("raise", "value")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="evaluate the grid and write OUT")
    p_dump.add_argument("out")
    p_dump.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    p_dump.add_argument("--points", type=int, default=None, help="keep N grid points")
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src, args.points)
    else:
        diff(args.a, args.b)


if __name__ == "__main__":
    main()
