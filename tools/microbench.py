"""Time a fixed list of `so12phase` calls in fresh processes, alternating two
source trees, and print each call's best time per tree and their ratio.

    python tools/microbench.py [--src A] [--src B] [--rounds N] [--calls NAME ...]

Each round starts one process per tree, in alternating order (A first in even
rounds, B first in odd ones), which imports `so12phase` from that tree and
times every call in CALLS (or the ones `--calls` names): one untimed call
fills the caches, such as the weight tables and the Gauss-Legendre nodes,
then REPEATS samples of a loop sized to take at least SAMPLE_S each, with the
garbage collector off.  A call's time is its best over all samples and
rounds.  To compare a parent, check it out beside this tree and pass
`--src ../parent/src --src src`; the default is the `src/` beside this script,
alone.  BLAS and OpenMP are pinned to one thread.  Only numpy and the
standard library are imported.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

# name: the call, given the modules coherent, special_fn and su11_rep of one tree
CALLS = {
    "bg_expectations_0.4": lambda co, sf, su: co.bg_expectations(1.0, 0.4 * cmath.exp(0.7j)),
    "bg_expectations_6": lambda co, sf, su: co.bg_expectations(1.0, 6.0 * cmath.exp(0.7j)),
    "sg_expectations_3": lambda co, sf, su: co.sg_expectations(1.0, 3.0 * cmath.exp(0.7j)),
    "sg_expectations_19": lambda co, sf, su: co.sg_expectations(1.0, 19.0 * cmath.exp(0.7j)),
    "rho_k": lambda co, sf, su: sf.rho_k(1.0, 6.0),
    "distribution_bg": lambda co, sf, su: sf.distribution("bg", 1.0, 36.0),
    "distribution_perelomov": lambda co, sf, su: sf.distribution("perelomov", 1.0, 0.25),
    "distribution_sg": lambda co, sf, su: sf.distribution("sg", 1.0, 9.0),
    "log_g_k": lambda co, sf, su: sf.log_g_k(1.0, 400.0),
    "inv_sqrt_k0_expectation": lambda co, sf, su: co.inv_sqrt_k0_expectation(1.0, 30.0),
    "build_generators_256": lambda co, sf, su: su.build_generators(su.RepParams(1.0, 256)),
}
SAMPLE_S = 0.005
REPEATS = 7
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _best(thunk) -> float:
    """The best seconds per call of `thunk` over REPEATS samples, after one untimed call."""
    thunk()
    timer = timeit.Timer(thunk)
    number = 1
    while timer.timeit(number) < SAMPLE_S:
        number *= 2
    return min(timer.timeit(number) for _ in range(REPEATS)) / number


def worker(src: str, names: list) -> dict:
    """{name: best seconds per call} for the named calls, `so12phase` imported from `src`."""
    sys.path.insert(0, str(Path(src).resolve()))
    from so12phase import coherent, special_fn, su11_rep

    return {name: _best(functools.partial(CALLS[name], coherent, special_fn, su11_rep)) for name in names}


def run(srcs: list, rounds: int, names: list) -> dict:
    """{name: [best seconds per call, one per tree]} over `rounds` alternated rounds."""
    env = dict(os.environ, **ONE_THREAD)
    best = {name: [float("inf")] * len(srcs) for name in names}
    for r in range(rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for i in order:
            out = subprocess.run([sys.executable, __file__, "--worker", srcs[i], "--calls", *names],
                                 capture_output=True, text=True, check=True, env=env)
            for name, t in json.loads(out.stdout).items():
                best[name][i] = min(best[name][i], t)
    return best


def report(srcs: list, best: dict) -> None:
    labels = [chr(ord("A") + i) for i in range(len(srcs))]
    for label, src in zip(labels, srcs):
        print(f"{label}: {src}")
    head = "".join(f"{label + ' us':>11s}" for label in labels)
    ratios = [f"{label}/A" for label in labels[1:]]
    print(f"{'call':26s}{head}" + "".join(f"{r:>8s}" for r in ratios))
    for name, times in best.items():
        cells = "".join(f"{t * 1e6:11.2f}" for t in times)
        print(f"{name:26s}{cells}" + "".join(f"{t / times[0]:8.3f}" for t in times[1:]))


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--src", action="append", help="a tree's source directory, at most two")
    parser.add_argument("--rounds", type=int, default=5, help="processes per tree")
    parser.add_argument("--calls", nargs="+", choices=list(CALLS), default=list(CALLS))
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.calls)))
        return {}
    srcs = args.src or [str(Path(__file__).resolve().parent.parent / "src")]
    if len(srcs) > 2 or args.rounds < 1:
        parser.error("give one or two --src and at least one round")
    best = run(srcs, args.rounds, args.calls)
    report(srcs, best)
    return best


if __name__ == "__main__":
    main()
