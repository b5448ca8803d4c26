"""Composite Gauss-Legendre quadrature with panel doubling, the engine behind
the integral representations in `coherent`."""

from __future__ import annotations

import functools

import numpy as np

PANELS, NODES, MAX_DOUBLINGS, RTOL = 8, 64, 6, 1e-12
# computed on first use, not at import: importing np.polynomial takes about 20 ms
_legendre_nodes = functools.cache(lambda: np.polynomial.legendre.leggauss(NODES))


def gauss_legendre_panels(f, a, b):
    """Integrate f over [a, b] with PANELS composite Gauss-Legendre panels of
    NODES nodes each, doubling the panel count up to MAX_DOUBLINGS times until
    the estimate is stable to RTOL.

    f must accept a numpy array of abscissae and return array values
    (complex allowed).  Returns (value, error_estimate).
    """
    x0, w0 = _legendre_nodes()

    def estimate(npanels):
        edges = np.linspace(a, b, npanels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        # all nodes of all panels in one flat array
        xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
        ws = (half[:, None] * w0[None, :]).ravel()
        vals = np.asarray(f(xs))
        return np.sum(ws * vals)

    panels = PANELS
    prev = estimate(panels)
    err = np.inf
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        cur = estimate(panels)
        err = abs(cur - prev)
        prev = cur
        if err <= RTOL * max(1.0, abs(cur)):
            break
    return prev, err
