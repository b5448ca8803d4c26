"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q benches
"""

import collections
import json
import math
import subprocess
import sys

import pytest

import env

env.pin_threads()
env.use_source_tree()

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(workloads.WORKLOADS)


def _tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=env.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.splitlines()


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_unit(workload, trace):
    lines = _tiny_run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    expected = run.PER_LAYER if trace else run.E2E
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert math.isfinite(result["metrics"][name]["value"])
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name


def _first_op(workload):
    wl = workloads.WORKLOADS[workload]
    op = next(workloads.batches(wl, 5, tiny=True))[0]
    res = wl.run(op, workloads.Stopwatch())
    assert oracles.check(workload, op, res).cls is None
    return op, res


@pytest.mark.parametrize("workload", NAMES)
def test_checker_flags_perturbed_output(workload):
    op, res = _first_op(workload)
    key = next(k for k in sorted(res.outputs) if k != "interior_dim")
    val = res.outputs[key]
    # a deviation of 1e-5 of the output's own size (or of its floor where
    # the exact value is zero) is beyond every tolerance
    bump = 1e-5 * max(abs(val), float(oracles.audit_oracle(op)[key][1])
                      if workload == "matrix_audit" else 1.0)
    res.outputs[key] = val + bump
    assert oracles.check(workload, op, res).cls == "out_of_tol"
    res.outputs[key] = float("nan")
    assert oracles.check(workload, op, res).cls == "nonfinite"
    res.outputs[key] = val
    res.errors.append(("part", "RuntimeError", "injected"))
    assert oracles.check(workload, op, res).cls == "raise"


def test_checker_flags_defective_vector():
    op, res = _first_op("state_oracle")
    res.vectors["state"]["norm_defect"] = 1.0
    assert oracles.check("state_oracle", op, res).cls == "bad_vector"


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_inputs_not_mix(workload):
    wl = workloads.WORKLOADS[workload]
    one, two = (next(workloads.batches(wl, seed)) for seed in (1, 2))
    mix = [collections.Counter((op.family, op.stratum) for op in b) for b in (one, two)]
    assert mix[0] == mix[1]
    by_stratum = [{op.stratum: (op.k, op.params) for op in b} for b in (one, two)]
    assert by_stratum[0] != by_stratum[1]
    again = next(workloads.batches(wl, 1))
    assert [(op.k, op.params) for op in again] == [(op.k, op.params) for op in one]


def test_defect_census_covers_every_defect():
    import defects

    rows = defects.census()
    assert len(rows) == 6 and all(n > 0 for _, n in rows.values())


def test_tracer_refuses_missing_target(monkeypatch):
    from tracer import Tracer, sf

    monkeypatch.delattr(sf, "rho_k")
    with pytest.raises(AttributeError, match="special_fn.rho_k"):
        Tracer().install()
    assert not hasattr(sf.log_g_k, "__wrapped__")


def test_missing_program_exits_without_result(monkeypatch, capsys):
    monkeypatch.setattr(env, "SRC", env.ROOT / "no-such-source-dir")
    assert run.main(["--workload", "moments_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_tail_percentile_is_fixed_per_batch():
    lat = [float(i) for i in range(100)]
    for batches in (1, 3):
        val, pct, beyond = run.tail(lat * batches, 100)
        assert (val, pct, beyond) == (89.0, 90.0, 10 * batches)
    assert run.tail([1.0, 3.0, 2.0], 3) == (3.0, 100.0, 0)
