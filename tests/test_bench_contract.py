"""The benchmark's tracer (`benches/tracer.py`) wraps library functions by
name and raises when one is missing; the library must keep every one."""

import importlib
from pathlib import Path

from so12phase import coherent as co
from so12phase import special_fn as sf

BENCHES = Path(__file__).resolve().parents[1] / "benches"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHES))
    tracer = importlib.import_module("tracer").Tracer()
    originals = (co.inv_sqrt_k0_expectation, co._grow_until_tail, sf.log_g_k)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (co.inv_sqrt_k0_expectation, co._grow_until_tail, sf.log_g_k) == originals
