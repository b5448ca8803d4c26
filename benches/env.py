"""Process environment for the benchmark: thread pinning, the import path of
the program under test, and the record stored with every result.

Call `pin_threads()` and `use_source_tree()` before anything imports numpy
or the program.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def pin_threads() -> None:
    """Single-threaded baseline: BLAS and OpenMP get one thread each."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import the program from the checkout's `src/`, not from site-packages."""
    if not (SRC / "so12phase").is_dir():
        raise MissingProgram(f"no program source under {SRC.name}/so12phase")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses: pinned threads, source tree on the path."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def environment_record() -> dict:
    """Thread pins, core count and library versions, stored with each result."""
    import mpmath
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }
