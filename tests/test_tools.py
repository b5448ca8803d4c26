"""The committed tools under tools/."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_value_diff_of_a_dump_against_itself_moves_nothing(tmp_path, capsys):
    value_diff = _load("value_diff")
    out = tmp_path / "dump.json"
    value_diff.main(["dump", str(out), "--points", "2"])
    summary = value_diff.diff(str(out), str(out))
    assert {"amplitudes", "bg_expectations", "distribution", "log_weight"} <= set(summary)
    assert all(same > 0 and moved == 0 and not raises for same, moved, _, raises in summary.values())
    assert "amplitudes" in capsys.readouterr().out
    # one value moved by 1e-12 is found, with its size
    record = json.loads(out.read_text())
    call = next(c for c, r in record["rho_k"].items() if "value" in r and r["value"]["f"] != "0x0.0p+0")
    value = float.fromhex(record["rho_k"][call]["value"]["f"])
    record["rho_k"][call]["value"]["f"] = (value * (1 + 1e-12)).hex()
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(record))
    same, n_moved, worst, raises = value_diff.diff(str(out), str(moved))["rho_k"]
    assert n_moved == 1 and 0.9e-12 < worst < 1.1e-12 and not raises


def test_microbench_times_each_call_in_each_tree(capsys):
    microbench = _load("microbench")
    src = str(TOOLS.parent / "src")
    best = microbench.main(["--src", src, "--src", src, "--rounds", "1", "--calls", "rho_k", "distribution_sg"])
    assert set(best) == {"rho_k", "distribution_sg"}
    assert all(len(times) == 2 and all(0.0 < t < 0.01 for t in times) for times in best.values())
    out = capsys.readouterr().out
    assert "B/A" in out and "rho_k" in out
