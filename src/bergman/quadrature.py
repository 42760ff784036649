"""Quadrature grids and deterministic sampling helpers.

Discs are integrated with a Gauss-Legendre rule in the radius (optionally
split into panels so piecewise-smooth radial factors stay spectrally
accurate) tensored with a uniform trapezoid rule in the angle, which is
exact for trigonometric polynomials below the node count.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.stats import qmc


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_nodes(radius: float, n_nodes: int,
                 breakpoints: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, radius], split at breakpoints."""
    edges = [0.0] + sorted(b for b in breakpoints if 0.0 < b < radius) + [radius]
    panels = len(edges) - 1
    per = max(4, n_nodes // panels)
    x, w = _gauss_legendre(per)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rs.append(mid + half * x)
        ws.append(half * w)
    return np.concatenate(rs), np.concatenate(ws)


def disc_grid(radius: float, n_radial: int = 64, n_angular: int = 128,
              breakpoints: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (complex) and weights for Lebesgue integration over a disc."""
    r, wr = radial_nodes(radius, n_radial, breakpoints)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr[:, None] * r[:, None] * wt * np.ones((1, n_angular))).ravel()
    return nodes, weights


def polydisc_grid(radii: tuple[float, ...], n_radial: int, n_angular: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid over a polydisc; nodes have shape (m, n)."""
    grids = [disc_grid(r, n_radial, n_angular) for r in radii]
    nodes = grids[0][0][:, None]
    weights = grids[0][1]
    for nd, wt in grids[1:]:
        m, k = nodes.shape[0], nd.shape[0]
        nodes = np.concatenate(
            [np.repeat(nodes, k, axis=0), np.tile(nd, m)[:, None]], axis=1)
        weights = np.repeat(weights, k) * np.tile(wt, m)
    return nodes, weights


def sobol_ball(nvars_complex: int, radius: float, n_samples: int,
               seed: int = 0) -> np.ndarray:
    """Scrambled-Sobol points in the complex ball |z| <= radius.

    Returns shape (m, nvars_complex) with m >= n_samples; points are drawn in
    the bounding cube and the ones outside the ball are rejected, so the
    sequence is deterministic for a fixed seed.
    """
    d = 2 * nvars_complex
    eng = qmc.Sobol(d, scramble=True, seed=seed)
    # Power-of-2 blocks, doubling the total each draw; Sobol balance only
    # holds for those sizes.
    k = max(10, int(np.ceil(np.log2(max(n_samples, 2)))))
    out = []
    got = 0
    total = 0
    while got < n_samples:
        draw = k if total == 0 else int(np.log2(total))
        block = eng.random_base2(draw)
        total += 2 ** draw
        cube = (2.0 * block - 1.0) * radius
        z = cube[:, 0::2] + 1j * cube[:, 1::2]
        keep = np.sqrt((np.abs(z) ** 2).sum(axis=1)) <= radius
        z = z[keep]
        out.append(z)
        got += z.shape[0]
    return np.concatenate(out, axis=0)[:n_samples]


def sampled_ratio(num: np.ndarray, den: np.ndarray, radius: float) -> np.ndarray:
    """num / den at the samples with den > (1e-6 * radius)^2, den a squared
    distance of samples in the ball of ``radius``: the one coincidence rule
    of every sampled margin.  Nearer samples carry no ratio, because there
    the cancellation in num swamps its limit."""
    keep = den > (1e-6 * radius) ** 2
    return num[keep] / den[keep]


def radial_bump(r: np.ndarray, plateau: float, support: float) -> np.ndarray:
    """Cutoff equal to 1 for r <= plateau, 0 for r >= support.

    Transition profile exp(1 - 1/(1 - t^2)) in t = (r - plateau)/(support - plateau).
    """
    r = np.asarray(r, dtype=float)
    chi = np.zeros_like(r)
    chi[r <= plateau] = 1.0
    mid = (r > plateau) & (r < support)
    t = (r[mid] - plateau) / (support - plateau)
    chi[mid] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return chi
