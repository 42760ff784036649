"""The four-point phase and its good contours.

From the polarization Psi of a weight the phase

    phi(y, xt; x, yt) = Psi(x, yt) - Psi(x, xt) - Psi(y, yt) + Psi(y, xt)

is written in the fast displacements (u, v) = (x - y, yt - xt) over the
slow variables (y, xt), in the weight's table coordinates.  A series in
(y, xt, u, v) is held as a dict of blocks: the key is the series ring's
monomial key of u^alpha v^beta over the 2n fast variables, so a product of
blocks adds keys and the origin block is key 0, and the value is the slow
series of the u^alpha v^beta part, kept to degree maxdeg - |alpha| - |beta|.
``series.bidegree`` reads (|alpha|, |beta|) off a key.
``lift_blocks`` expands f(y + u, xt + v) that way.  With S = Psi(y + u,
xt + v), the last three terms of phi are S at v = 0, at u = 0 and at
u = v = 0, so phi is exactly the blocks of S with |alpha| >= 1 and
|beta| >= 1.  The diagonal {u = v = 0} is therefore a critical manifold
with value zero; the (e_j, e_k) blocks are the mixed Hessian
B = d_x d_yt Psi of the quadratic part u^T B(y, xt) v, and the blocks of
fast degree >= 3 are the remainder.  Over the origin y = xt = 0, phi is the
part of Psi with x- and xt-degree >= 1.

The good contour for the fast integral runs through the origin with
v = -conj(B0^T u), where B0 = B(0, 0) is the weight's Levi matrix
``Weight.levi``; on it the quadratic part equals -|B0^T u|^2.  Inversion
contours pair a point x with theta(x, y) built from the weight's
holomorphic gradient and Hessian; ``theta_pairing`` is the one formula for
(x - y).theta(x, y), ``theta_ratio`` the one for the defining inequality,
and the quality of either contour is the sampled margin of its inequality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadContour, DegenerateHessian
from .quadrature import sampled_ratio, sobol_ball
from .series import TruncatedSeries, bidegree, monomial_key
from .weight import Weight, _pair_points, polarize

HESS_FLOOR = 1e-10
# Sobol samples behind every sampled contour margin.
MARGIN_SAMPLES = 10_000


@dataclass(frozen=True)
class PhaseData:
    """Phase series plus the pieces consumed by the expansion engine."""

    n: int
    maxdeg: int
    phi0: TruncatedSeries        # phi at y = xt = 0, a series in (u, v)
    quad_B: list                 # n x n nested list of series in (y, xt): the (e_j, e_k) blocks
    b0: np.ndarray               # B at the origin: the weight's Levi matrix
    hess_det: complex            # det(b0)^2 = (-1)^n det of the fast Hessian [[0, B], [B^T, 0]]
    remainder: dict              # blocks of phi with |alpha| + |beta| >= 3; empty: none
    # Work that depends on the phase alone, kept as long as the phase: the
    # expansion operators (amplitude), the live sp contour and each sp
    # case's expansion (oracle).
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def slow_deg(self) -> int:
        """Degree of series in (y, xt): one pairing below the phase's."""
        return max(self.maxdeg - 2, 0)


def _theta(w: Weight, f: TruncatedSeries, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(2/i)(grad f(y) + (1/2) hess f(y) (x - y)) at paired rows, f in the
    weight's 2n table variables; f = Phi gives theta."""
    pts = w.displacements(ys)
    dxy = xs - ys
    th = np.empty(ys.shape, dtype=complex)
    for j in range(w.n):
        dj = f.diff(j)
        g = dj.eval_grid(pts)
        corr = np.zeros(ys.shape[0], dtype=complex)
        for k in range(w.n):
            corr += 0.5 * dj.diff(k).eval_grid(pts) * dxy[:, k]
        th[:, j] = (2.0 / 1j) * (g + corr)
    return th


def theta_pairs(w: Weight, x, y) -> np.ndarray:
    """theta(x_i, y_i) = (2/i)(grad phi(y) + (1/2) hess phi(y) (x - y))."""
    xs, ys = _pair_points(x, y, w.n)
    return _theta(w, w.series, xs, ys)


def theta_jacobian_pairs(w: Weight, x, y) -> np.ndarray:
    """det of d(theta)/d(conj y) at paired points, shape (m,).  x - y is
    holomorphic in y, so column k is the theta formula applied to dphi/dconj(y_k)."""
    xs, ys = _pair_points(x, y, w.n)
    jac = np.stack([_theta(w, w.series.diff(w.n + k), xs, ys) for k in range(w.n)],
                   axis=2)
    if w.n == 1:
        return jac[:, 0, 0]
    return np.linalg.det(jac)


def theta_pairing(w: Weight, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x - y).theta(x, y) at paired (m, n) rows; either may be a single row."""
    return ((x - y) * theta_pairs(w, x, y)).sum(axis=1)


def theta_ratio(w: Weight, x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """(phi(x) - phi(y) + Im((x - y).theta(x, y))) / |x - y|^2 at the paired
    (m, n) rows, either may be one, that ``sampled_ratio`` keeps at ``radius``."""
    return sampled_ratio(w.phi(x) - w.phi(y) + theta_pairing(w, x, y).imag,
                         (np.abs(x - y) ** 2).sum(axis=1), radius)


def lift_blocks(f: TruncatedSeries) -> dict:
    """f(x, xt) -> f(y + u, xt + v) as blocks {key of u^alpha v^beta: slow series}.

    Each monomial expands by the binomial theorem; the u^alpha v^beta block
    is kept to degree f.maxdeg - |alpha| - |beta|, so the blocks hold the
    lift to total degree f.maxdeg.  The binomial products of a monomial x^m
    are the products of rows m_i of one Pascal table, enumerated in the
    order of the exponents k they go with.
    """
    pascal = [[math.comb(e, j) for j in range(e + 1)] for e in range(f.maxdeg + 1)]
    parts: dict = {}      # k -> (key of x^k, the slow series' coefficients)
    for mi, c in f.terms():
        key = monomial_key(mi)
        for k, binomials in zip(itertools.product(*(range(e + 1) for e in mi)),
                                itertools.product(*(pascal[e] for e in mi))):
            if k not in parts:
                parts[k] = monomial_key(k), {}
            kk, slow = parts[k]
            slow[key - kk] = c * math.prod(binomials)
    return {kk: TruncatedSeries(f.nvars, f.maxdeg - sum(k), slow, _checked=True)
            for k, (kk, slow) in parts.items()}


def build_phase(w: Weight) -> PhaseData:
    """Assemble the four-point phase from the blocks of Psi(y + u, xt + v)."""
    n = w.n
    psi = polarize(w)
    b0 = w.levi
    if np.linalg.svd(b0, compute_uv=False).min() <= HESS_FLOOR:
        raise DegenerateHessian(f"mixed block singular at the origin: {b0}")

    blocks = lift_blocks(psi)
    no_term = TruncatedSeries.zero(2 * n, psi.maxdeg - 2)
    quad_B = [[blocks.get(monomial_key(tuple(int(i in (j, n + k)) for i in range(2 * n))),
                          no_term) for k in range(n)] for j in range(n)]
    remainder = {key: s for key, s in blocks.items()
                 if min(ab := bidegree(key, n)) >= 1 and sum(ab) >= 3}
    phi0 = psi.filter(lambda mi: any(mi[:n]) and any(mi[n:]))
    return PhaseData(n=n, maxdeg=psi.maxdeg, phi0=phi0, quad_B=quad_B, b0=b0,
                     hess_det=complex(np.linalg.det(b0) ** 2), remainder=remainder)


def fast_uv(pd: PhaseData, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows u (m, n), flat for n = 1, and their good-contour partners
    v = -conj(B0^T u)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    return u, -np.conj(u) @ np.conj(pd.b0)


def phase_on_contour(pd: PhaseData, u: np.ndarray) -> np.ndarray:
    """Evaluate phi on the good contour at fast displacements u."""
    u, v = fast_uv(pd, u)
    return pd.phi0.eval_grid(np.concatenate([u, v], axis=1))


def verify_contour(pd: PhaseData, radius: float, seed: int = 0) -> float:
    """Sampled margin of the good contour: min of -Re(phi) / (|u|^2 + |v|^2)
    over MARGIN_SAMPLES fast samples u.  It must be strictly positive.
    """
    u, v = fast_uv(pd, sobol_ball(pd.n, radius, MARGIN_SAMPLES, seed=seed))
    denom = (np.abs(u) ** 2).sum(axis=1) + (np.abs(v) ** 2).sum(axis=1)
    margin = float(sampled_ratio(-phase_on_contour(pd, u).real, denom, radius).min())
    if margin <= 0.0:
        raise BadContour(
            f"amplitude contour margin {margin:.3e} is not positive at radius {radius}")
    return margin


def inversion_margin(w: Weight, radius: float, seed: int = 0) -> float:
    """Min of theta_ratio(0, y) over MARGIN_SAMPLES Sobol samples y near 0.

    This is the margin of the inversion contour y -> (y, theta(0, y)); it
    must be strictly positive.
    """
    y = sobol_ball(w.n, radius, MARGIN_SAMPLES, seed=seed)
    margin = float(theta_ratio(w, np.zeros((1, w.n), dtype=complex), y, radius).min())
    if margin <= 0.0:
        raise BadContour(
            f"inversion contour margin {margin:.3e} is not positive at radius {radius}")
    return margin
