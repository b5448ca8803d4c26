"""The benchmark's tracer (`benches/tracer.py`) wraps library functions by
name and raises when one is missing; the library must keep every one."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from so12phase import coherent as co
from so12phase import special_fn as sf
from so12phase import su11_rep as su

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


@pytest.mark.parametrize("state,builder", [
    (co.BGState(0.5, 1.0 + 1.0j), "coherent.bg_amplitudes"),
    (co.PerelomovState(0.5, 0.3j), "coherent.perelomov_amplitudes"),
    (co.SGState(0.5, 2.0), "coherent.sg_amplitudes"),
], ids=["bg", "perelomov", "sg"])
def test_amplitudes_dispatch_is_traced(monkeypatch, state, builder):
    # the coherent.amplitudes.* metrics read the builders' spans and the basis
    # sizes their _grow_until_tail calls try; a dispatch that bypassed the
    # module attributes would leave those metrics at zero
    monkeypatch.syspath_prepend(str(BENCHES))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        vec = co.amplitudes(state)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[tracer_mod.LAYER] == "coherent.amplitudes"]
    assert [s[tracer_mod.NAME] for s in spans] == [builder]
    assert sum(spans[0][tracer_mod.COUNTS]["tried"]) >= vec.cutoff


def test_audit_is_traced(monkeypatch):
    # the su11_rep.* metrics read these spans; a call that bypassed the
    # module attributes would leave its layer reading zero
    monkeypatch.syspath_prepend(str(BENCHES))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    params = su.RepParams(0.5, 8)
    calls = {"build_generators": "su11_rep.build",
             "holstein_primakoff": "su11_rep.build",
             "casimir": "su11_rep.audit",
             "commutator_residuals": "su11_rep.audit",
             "composite_qp": "su11_rep.build"}
    try:
        tracer.install()
        for name in calls:
            getattr(su, name)(params)
    finally:
        tracer.uninstall()
    recorded = {(s[tracer_mod.NAME], s[tracer_mod.LAYER]) for s in tracer.spans}
    for name, layer in calls.items():
        assert ("su11_rep." + name, layer) in recorded
    assert tracer_mod.layer_metrics(tracer, {}, set())["su11_rep.peak_alloc_mb"] > 0


def test_expectation_is_traced(monkeypatch):
    # the su11_rep.expectation.* metrics of state_oracle read this span
    monkeypatch.syspath_prepend(str(BENCHES))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    k0 = su.build_generators(su.RepParams(0.5, 8))["K0"]
    vec = np.ones(8, dtype=complex)
    try:
        tracer.install()
        val = k0.expectation(vec)
    finally:
        tracer.uninstall()
    assert val == pytest.approx(8 * 0.5 + 28)
    assert ("su11_rep.OperatorMatrix.expectation", "su11_rep.expectation") in {
        (s[tracer_mod.NAME], s[tracer_mod.LAYER]) for s in tracer.spans}


def test_g_k_terms_are_traced(monkeypatch):
    # the special_fn.g_k.* metrics of state_oracle read this span and its
    # terms count, which g_k takes from the EvalResult it returns
    monkeypatch.syspath_prepend(str(BENCHES))
    tracer_mod = importlib.import_module("tracer")
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        co.bg_overlap(0.5, 3 + 1j, 3)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[tracer_mod.NAME] == "special_fn.g_k"]
    assert len(spans) == 1 and spans[0][tracer_mod.COUNTS]["terms"] > 0
