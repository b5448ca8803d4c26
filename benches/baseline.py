"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 benches/baseline.py --seeds 1 10 --label seed --out benches/baseline/seed.json

For each workload and end-to-end metric the summary holds the median, the
quartiles (statistics.quantiles(n=4)) and the spread (q3 - q1) / median, the
same statistics the regression bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    details = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["details"] = json.loads(details.read_text())
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": vals}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    p.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    report = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, spec["run_seconds"], 0))
            print(name, seed, {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        report["environment"] = runs[0]["details"]["environment"]
        report["workloads"][name] = {
            "seeds": list(seeds),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "fail_frac_by_class": [r["details"]["fail_frac_by_class"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "end_to_end": summarize(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in report["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric:12s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {s['spread']:.3f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
