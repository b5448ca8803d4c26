"""Census of the program's known defects, on inputs just outside the domain
that `state_oracle` covers.

    python3 benches/defects.py

The timed workloads keep to inputs on which every op passes its oracle, so
that a run's `correct` flag means the program is right there.  This script
calls the same functions on a fixed grid beyond that domain and prints, for
each known defect (NOTES.md), how many of its inputs still fail.  A row whose
count drops to zero marks a defect fixed: its inputs can then move back into
`state_oracle`.  It times nothing and takes a few seconds.
"""

from __future__ import annotations

import cmath
import math
import sys

import env

env.pin_threads()
env.use_source_tree()

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
from so12phase import coherent as co  # noqa: E402

KS = (0.25, 0.5, 1.0, 3.0, 10.0)
RTOL = oracles.RTOL["state_oracle"]


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except Exception:  # any exception on in-domain input is the defect
        return True
    return False


def _bad_vector(state) -> bool:
    vec = co.amplitudes(state)
    return not np.any(vec.coeffs) or not vec.norm_defect() <= oracles.TAIL_TOL


def _off(got, exact) -> bool:
    if not np.isfinite(complex(got)):
        return True
    with mp.workdps(oracles.DPS):
        return oracles._rel_err(got, exact, 0) > RTOL


def _cases():
    """(defect, failed) for every input of the grid."""
    for k in KS:
        for r in (32.0, 35.0, 40.0, 45.0):
            yield "SG vector zero or defective, |alpha| >= 32", _bad_vector(co.SGState(k, r))
        for r in (600.0, 800.0, 1000.0):
            yield "BG vector zero or defective, |z| >= 600", _bad_vector(co.BGState(k, r))
        for r in (300.0, 450.0, 1000.0):
            z2 = r + math.sqrt(1.0 + r) * cmath.exp(0.5j)
            yield "bg_overlap OverflowError, |z| >= 300", _raises(co.bg_overlap, k, z2, r)
        for r in (0.87, 0.9, 0.95):
            yield ("PerelomovState CutoffExhausted, |lam| >= 0.87",
                   _raises(co.amplitudes, co.PerelomovState(k, r)))
        for au in (4.0, 6.0, 8.0):
            u = au * cmath.exp(0.9j * math.pi)
            yield ("cross_kernel_D cancellation, |u| >= 4",
                   _off(co.cross_kernel_D(k, u), oracles.cross_D(k, u)))
        for au in (100.0, 300.0, 1000.0):
            u = au * cmath.exp(0.9j * math.pi)
            yield ("cross_kernel_C cancellation, |u| >= 100",
                   _off(co.cross_kernel_C(k, u), oracles.cross_C(k, u)))


def census() -> dict:
    """{defect: (failed, tried)} over the grid, in the order of `_cases`."""
    rows = {}
    for name, failed in _cases():
        n_bad, n = rows.get(name, (0, 0))
        rows[name] = (n_bad + int(failed), n + 1)
    return rows


def main() -> int:
    for name, (n_bad, n) in census().items():
        print(f"{n_bad:3d} of {n:3d} fail   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
