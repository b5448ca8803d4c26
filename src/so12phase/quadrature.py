"""Composite Gauss-Legendre quadrature with panel doubling, the engine behind
the integral representations in `coherent`."""

from __future__ import annotations

import numpy as np


def gauss_legendre_panels(f, a, b, panels=8, nodes=64, max_doublings=6, rtol=1e-12):
    """Integrate f over [a, b] with `panels` composite Gauss-Legendre panels,
    doubling the panel count until the estimate is stable to rtol.

    f must accept a numpy array of abscissae and return array values
    (complex allowed).  Returns (value, error_estimate).
    """
    x0, w0 = np.polynomial.legendre.leggauss(nodes)

    def estimate(npanels):
        edges = np.linspace(a, b, npanels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        # all nodes of all panels in one flat array
        xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
        ws = (half[:, None] * w0[None, :]).ravel()
        vals = np.asarray(f(xs))
        return np.sum(ws * vals)

    prev = estimate(panels)
    err = np.inf
    for _ in range(max_doublings):
        panels *= 2
        cur = estimate(panels)
        err = abs(cur - prev)
        prev = cur
        if err <= rtol * max(1.0, abs(cur)):
            break
    return prev, err
