"""Benchmark of the so12phase library: one closed-loop client, one thread.

    python3 benches/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole batches of the workload's ops until S seconds of library time have
passed, checks every op's output against its oracle, and prints a report whose
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Times are reported at nominal host speed (hostspeed.py); the raw ones are
printed above the JSON line and stored with the details.
With --trace 0 the metrics are the end-to-end ones (E2E); with --trace 1 one
batch runs untraced and then traced, and the metrics are the per-layer ones
(PER_LAYER).  Details, the environment record and the trace's spans go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

FAIL_CLASSES = ("raise", "nonfinite", "bad_vector", "out_of_tol")

OUT_DIR = env.ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_CPU_S = 60  # a set-up probe that spins is killed after this much CPU time
TAIL_BEYOND = 10  # samples per batch above the tail percentile

E2E = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "min_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "special_fn.log_g_k.calls": "count",
    "special_fn.log_g_k.self_s": "s",
    "special_fn.log_g_k.bg_far_share": "ratio",
    "special_fn.rho_k.calls": "count",
    "special_fn.rho_k.self_s": "s",
    "special_fn.g_k.calls": "count",
    "special_fn.g_k.self_s": "s",
    "special_fn.g_k.terms": "count",
    "special_fn.calls": "count",
    "special_fn.self_s": "s",
    "special_fn.share": "ratio",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.nodes": "count",
    "quadrature.node_efficiency": "ratio",
    "coherent.moments.calls": "count",
    "coherent.moments.self_s": "s",
    "coherent.inv_sqrt.integral_calls": "count",
    "coherent.amplitudes.calls": "count",
    "coherent.amplitudes.self_s": "s",
    "coherent.amplitudes.cutoff": "count",
    "coherent.amplitudes.useful_ratio": "ratio",
    "coherent.amplitudes.failed": "count",
    "su11_rep.build.calls": "count",
    "su11_rep.build.self_s": "s",
    "su11_rep.audit.calls": "count",
    "su11_rep.audit.self_s": "s",
    "su11_rep.audit.share": "ratio",
    "su11_rep.expectation.calls": "count",
    "su11_rep.expectation.self_s": "s",
    "su11_rep.peak_alloc_mb": "MB",
    "trace.ops": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("moments_sweep", "matrix_audit", "state_oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="lowest bin of every stratum only (the benchmark's own tests)")
    return p.parse_args(argv)


def _limit_probe_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (PROBE_CPU_S, PROBE_CPU_S))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(wall time, host speed factor) of fresh processes that import the
    program and warm up; the factor is the mean of reference samples taken
    just before and just after the probe."""
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample()
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # a blocking wait: subprocess's wait with a timeout polls at 50 ms,
        # which rounds every probe up to the next step.  The probe's CPU limit
        # bounds it instead.
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                                env=env.child_env(), cwd=env.ROOT,
                                stdout=subprocess.DEVNULL, preexec_fn=_limit_probe_cpu)
        code = proc.wait()
        wall = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        host.sample()
        out.append((wall, host.factor(len(host.samples) - 2)))
    return out


def run_ops(wl, ops, tracer=None):
    """Closed loop: each op starts when the last returned.  Returns
    [(op, result)], with result.latency the op's library time and
    result.factor the host speed factor around it (hostspeed.py)."""
    from hostspeed import HostSpeed
    from workloads import Stopwatch

    host = HostSpeed()
    host.sample()
    done = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        first = len(host.samples) - 1
        sw = Stopwatch(host)
        res = wl.run(op, sw)
        res.latency = sw.elapsed
        res.factor = host.factor(first)
        done.append((op, res))
    return done


def tail(latencies: list[float], batch_size: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples above it in every batch.  Fixing the percentile
    per batch keeps it the same however many batches a run completes; with
    fewer than TAIL_BEYOND + 1 ops per batch it is the maximum."""
    lat = sorted(latencies)
    n = len(lat)
    if batch_size <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    beyond = TAIL_BEYOND * n // batch_size
    return lat[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()
    try:
        env.use_source_tree()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = measure_setup(args.workload)

    import oracles  # loads mpmath before timing, so peak_rss_mb always includes it
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workloads.warm_up(wl)
    stream = workloads.batches(wl, args.seed, args.tiny)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "tiny": args.tiny}

    if args.trace:
        from tracer import Tracer, layer_metrics

        batch = next(stream)
        untraced = run_ops(wl, batch)
        with Tracer() as tr:
            done = run_ops(wl, batch, tr)
        verdicts = [oracles.check(args.workload, op, res) for op, res in done]
        t_untraced = sum(res.latency / res.factor for _, res in untraced)
        t_traced = sum(res.latency / res.factor for _, res in done)
        bg_far = {i for i, (op, _) in enumerate(done)
                  if op.family == "bg" and abs(op.params.get("x", 0)) > 20}
        layer = layer_metrics(tr, {i: res.latency for i, (_, res) in enumerate(done)}, bg_far)
        layer.update({"trace.ops": len(done), "trace.ops_per_s": len(done) / t_traced,
                      "trace.untraced_ops_per_s": len(done) / t_untraced,
                      "trace.overhead": t_traced / t_untraced - 1.0})
        values = {name: float(layer.get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
        extra_layers = {key: val for key, val in layer.items() if key not in PER_LAYER}
        details["other_spans"] = extra_layers
    else:
        done, verdicts, lat, raw, factors, busy = [], [], [], [], [], 0.0
        while not done or busy < args.seconds:
            ran = run_ops(wl, next(stream))
            busy += sum(res.latency for _, res in ran)
            done += ran
            raw += [res.latency for _, res in ran]
            lat += [res.latency / res.factor for _, res in ran]
            factors += [res.factor for _, res in ran]
            # checked between batches, outside the timed calls: the timed
            # work then spans about twice the wall time, which averages out
            # more of the host's slow speed drift
            verdicts += [oracles.check(args.workload, op, res) for op, res in ran]
        batch_size = len(ran)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_val, tail_pct, beyond = tail(lat, batch_size)
        details.update({
            "ops": len(done), "busy_s": busy,
            "host_factor_quartiles": statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
            "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
            "setup_probes_wall_s_and_factor": setup_times,
            "raw": {"ops_per_s": len(raw) / busy, "op_p50_ms": 1e3 * statistics.median(raw),
                    "op_tail_ms": 1e3 * tail(raw, batch_size)[0]}})

    classes = {cls: sum(v.cls == cls for v in verdicts) for cls in FAIL_CLASSES}
    attempted = len(done)
    failed = sum(v.cls is not None for v in verdicts)
    if not args.trace:
        digits = [d for v in verdicts if v.cls is None for d in v.digits]
        values = {
            "ops_per_s": attempted / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_val,
            "ok_frac": (attempted - failed) / attempted,
            "min_digits": min(digits) if digits else 0.0,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(wall / f for wall, f in setup_times),
        }
        units = E2E
    details.update({
        "environment": env.environment_record(),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "fail_frac_by_class": {cls: n / attempted for cls, n in classes.items()},
        "failures": [{"op": i, "family": op.family, "k": op.k,
                      "params": {key: str(val) for key, val in op.params.items()},
                      "class": v.cls, "detail": v.detail}
                     for i, ((op, _), v) in enumerate(zip(done, verdicts)) if v.cls],
        "metrics": values,
    })
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        tr.dump(OUT_DIR / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  "
          f"failed {failed} (fail_frac {failed / attempted:.4f})")
    print("  by class: " + "  ".join(f"{c} {n / attempted:.4f}" for c, n in classes.items()))
    if not args.trace:
        print(f"  op_tail_ms is p{tail_pct:.2f} of {attempted} ops "
              f"({beyond} samples beyond it)")
        print(f"  host speed factor {min(factors):.3f}..{max(factors):.3f}; before "
              "dividing by them: " + "  ".join(f"{k} {v:.6g}" for k, v in details["raw"].items()))
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
