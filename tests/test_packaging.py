"""Packaging metadata that an install acts on, and the imports it must cover."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src"


def test_console_scripts_resolve():
    # an entry naming a missing module installs a command that dies on start
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _third_party_imports() -> set:
    """Top-level modules imported anywhere under src/, function bodies included,
    less the standard library and the package itself."""
    found = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.partition(".")[0])
    own = {p.name for p in SRC.iterdir() if p.is_dir()}
    return found - set(sys.stdlib_module_names) - own - {"__future__"}


def test_dependencies_are_the_third_party_imports():
    # a lazy import inside a function needs its package declared as much as a top-level one
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert declared == _third_party_imports() == {"numpy"}


def test_library_never_imports_scipy():
    # import scipy.special alone took about 60% of the package's import; the
    # state-vector, moment and matrix paths share one process
    code = textwrap.dedent("""
        import sys
        from so12phase import coherent as co, special_fn as sf, su11_rep as su
        p = su.RepParams(0.5, 8)
        for fn in (su.build_generators, su.composite_ladder, su.composite_qp,
                   su.holstein_primakoff, su.casimir, su.commutator_residuals):
            fn(p)
        for state in (co.BGState(0.75, 2 - 1j), co.PerelomovState(0.25, 0.6j),
                      co.SGState(1.5, -1.2 + 0.4j)):
            co.amplitudes(state)
            co.number_prob(state, 3)
        co.bg_expectations(0.75, 2 - 1j)
        co.bg_expectations(0.75, 30.0)  # past NEAR_MODULUS: the quadrature
        co.perelomov_expectations(0.25, 0.6j)
        co.sg_expectations(1.5, -1.2 + 0.4j)
        co.sg_asymptotics(1.5, 10.0)
        co.bg_overlap(0.75, 1 + 1j, 2 - 1j)
        co.cross_overlaps(0.75, 0.5, 1.0, 0.3j)
        sf.rho_k(0.75, 2.0)
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_quadrature_nodes_are_made_once_and_not_at_import():
    # leggauss(64) cost 1.8 ms on every quadrature call; at import, loading
    # np.polynomial would add about 20 ms to every process
    code = textwrap.dedent("""
        import sys
        from so12phase import coherent as co, quadrature as quad
        print("numpy.polynomial" in sys.modules)
        co.inv_sqrt_k0_expectation(0.75, 30.0)
        co.inv_sqrt_k0_expectation(0.75, 40.0)
        import numpy as np
        print(quad._legendre_nodes.cache_info().misses,
              [a.tobytes() for a in quad._legendre_nodes()] == [a.tobytes() for a in np.polynomial.legendre.leggauss(64)])
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False", "1", "True"]
