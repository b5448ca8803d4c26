"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the module attributes that callers look up with
wrappers that record one span per call: name, layer, start, end, parent span
and op id, plus per-call counts.  `coherent` calls `special_fn.log_g_k` through
the module but imports `gauss_legendre_panels` by name, so both places are
patched.  Spans stay in memory until `dump`.  Self time is a span's duration
minus the time covered by its direct children (calls are nested in one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from oracles import TAIL_TOL
from so12phase import coherent as co
from so12phase import quadrature as quad
from so12phase import special_fn as sf
from so12phase import su11_rep as su

# (owner, attribute, layer).  A missing attribute raises: a program that drops
# or renames a traced function must fail the traced run, not report its layer
# as zero calls and zero time
TARGETS = [
    (sf, "log_g_k", "special_fn"),
    (sf, "rho_k", "special_fn"),
    (sf, "g_k", "special_fn"),
    (quad, "gauss_legendre_panels", "quadrature"),
    (co, "gauss_legendre_panels", "quadrature"),
    (co, "bg_amplitudes", "coherent.amplitudes"),
    (co, "perelomov_amplitudes", "coherent.amplitudes"),
    (co, "sg_amplitudes", "coherent.amplitudes"),
    (co, "bg_expectations", "coherent.moments"),
    (co, "perelomov_expectations", "coherent.moments"),
    (co, "sg_expectations", "coherent.moments"),
    (co, "inv_sqrt_k0_expectation", "coherent.moments"),
    (co, "bg_overlap", "coherent.moments"),
    (co, "cross_overlaps", "coherent.moments"),
    (su, "build_generators", "su11_rep.build"),
    (su, "composite_ladder", "su11_rep.build"),
    (su, "composite_qp", "su11_rep.build"),
    (su, "holstein_primakoff", "su11_rep.build"),
    (su, "casimir", "su11_rep.audit"),
    (su, "commutator_residuals", "su11_rep.audit"),
    (su.OperatorMatrix, "expectation", "su11_rep.expectation"),
]
ALLOC_LAYERS = ("su11_rep.build", "su11_rep.audit")

def _lookup(owner, attr):
    fn = owner.__dict__.get(attr)
    if fn is None:
        raise AttributeError(f"traced function {owner.__name__}.{attr} is missing")
    return fn


# span fields
NAME, LAYER, START, END, PARENT, OP, COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._alloc_depth = 0

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        found = [(owner, attr, layer, _lookup(owner, attr)) for owner, attr, layer in TARGETS]
        grow = _lookup(co, "_grow_until_tail")
        wrapped = {}
        for owner, attr, layer, fn in found:
            self._saved.append((owner, attr, fn))
            if id(fn) not in wrapped:  # one wrapper per function, however many owners
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
                wrapped[id(fn)] = self._wrap(fn, name, layer)
            setattr(owner, attr, wrapped[id(fn)])
        self._saved.append((co, "_grow_until_tail", grow))
        co._grow_until_tail = self._wrap_grow(grow)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -------------------------------------------------------------- wrappers

    def _wrap(self, fn, name, layer):
        spans, stack = self.spans, self._stack
        alloc = layer in ALLOC_LAYERS
        quadrature = layer == "quadrature"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = {}
            if quadrature:  # count abscissae per integrand evaluation
                sizes = counts["sizes"] = []
                f = args[0]

                def counted(xs):
                    sizes.append(np.size(xs))
                    return f(xs)

                args = (counted,) + args[1:]
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, counts]
            stack.append(len(spans))
            spans.append(span)
            outer_alloc = alloc and self._alloc_depth == 0
            if alloc:
                if outer_alloc:
                    tracemalloc.start()
                self._alloc_depth += 1
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                counts["raised"] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if alloc:
                    self._alloc_depth -= 1
                    if outer_alloc:
                        counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            terms = getattr(out, "terms_used", None)
            if terms is not None:
                counts["terms"] = terms
            if hasattr(out, "norm_defect"):
                counts["cutoff"] = out.cutoff
                counts["defective"] = (not np.any(out.coeffs)
                                       or not out.norm_defect() <= TAIL_TOL)
            return out

        return wrapper

    def _wrap_grow(self, grow):
        """Basis sizes tried, read off the `log_weight` argument, charged to
        the enclosing amplitudes span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(grow)
        def wrapper(log_weight, *args, **kwargs):
            counts = spans[stack[-1]][COUNTS] if stack else {}
            tried = counts.setdefault("tried", [])

            def counted(n):
                tried.append(np.size(n))
                return log_weight(n)

            return grow(counted, *args, **kwargs)

        return wrapper

    # -------------------------------------------------------------- analysis

    def self_times(self) -> np.ndarray:
        dur = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros_like(dur)
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        return dur - child

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        selft = self.self_times()
        with open(path, "w") as fh:
            for s, st in zip(self.spans, selft):
                counts = {key: val for key, val in s[COUNTS].items() if key not in ("sizes", "tried")}
                if "sizes" in s[COUNTS]:
                    counts["nodes"] = int(sum(s[COUNTS]["sizes"]))
                if "tried" in s[COUNTS]:
                    counts["basis_tried"] = int(sum(s[COUNTS]["tried"]))
                fh.write(json.dumps({"name": s[NAME], "layer": s[LAYER], "start": s[START],
                                     "end": s[END], "self": st, "parent": s[PARENT],
                                     "op": s[OP], **counts}, default=str) + "\n")


def layer_metrics(tracer: Tracer, op_times: dict, bg_far_ops: set) -> dict:
    """Per-layer totals over the traced ops (see PER_LAYER in run.py).

    `op_times` maps op id to its traced latency; `bg_far_ops` holds the ids of
    BG ops with |z| > 20, the ones whose <(K0+k)^-1/2> goes through quadrature.
    """
    spans = tracer.spans
    selft = tracer.self_times()
    m = defaultdict(float)
    amp_cutoff, amp_tried = 0, 0
    nodes_accepted = 0
    bg_far_log_g = 0.0
    for s, st in zip(spans, selft):
        name, layer, counts = s[NAME], s[LAYER], s[COUNTS]
        group = layer.split(".")[0]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += st
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += st
        if group != layer:
            m[f"{group}.self_s"] += st
        if name == "special_fn.g_k":
            m["special_fn.g_k.terms"] += counts.get("terms", 0)
        if name == "special_fn.log_g_k" and s[OP] in bg_far_ops:
            bg_far_log_g += st
        if layer == "quadrature":
            sizes = counts.get("sizes", [])
            m["quadrature.nodes"] += sum(sizes)
            nodes_accepted += sizes[-1] if sizes else 0
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "coherent.inv_sqrt_k0_expectation":
                m["coherent.inv_sqrt.integral_calls"] += 1
        if layer == "coherent.amplitudes":
            amp_cutoff += counts.get("cutoff", 0)
            amp_tried += sum(counts.get("tried", []))
            if "raised" in counts or counts.get("defective"):
                m["coherent.amplitudes.failed"] += 1
        if "peak_alloc" in counts:
            m["su11_rep.peak_alloc_mb"] = max(m["su11_rep.peak_alloc_mb"],
                                              counts["peak_alloc"] / 2 ** 20)
    busy = sum(op_times.values())
    amp_calls = m["coherent.amplitudes.calls"]
    m["quadrature.node_efficiency"] = (nodes_accepted / m["quadrature.nodes"]
                                       if m["quadrature.nodes"] else 0.0)
    m["coherent.amplitudes.cutoff"] = amp_cutoff / amp_calls if amp_calls else 0.0
    m["coherent.amplitudes.useful_ratio"] = amp_cutoff / amp_tried if amp_tried else 0.0
    far_time = sum(t for op, t in op_times.items() if op in bg_far_ops)
    m["special_fn.log_g_k.bg_far_share"] = bg_far_log_g / far_time if far_time else 0.0
    m["su11_rep.audit.share"] = m["su11_rep.audit.self_s"] / busy if busy else 0.0
    m["special_fn.share"] = m["special_fn.self_s"] / busy if busy else 0.0
    return dict(m)
