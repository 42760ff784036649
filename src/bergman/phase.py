"""The four-point phase and its good contours.

From the polarization Psi of a weight the phase

    phi(y, xt; x, yt) = Psi(x, yt) - Psi(x, xt) - Psi(y, yt) + Psi(y, xt)

is written in the fast displacements (u, v) = (x - y, yt - xt), in the
4n-variable ring ordered (y-block, xt-block, u-block, v-block), the slow
blocks in the weight's table coordinates.  With S = Psi(y + u, xt + v), the
last three terms are S at v = 0, at u = 0 and at u = v = 0, so phi is
exactly the part of S whose monomials have u-degree >= 1 and v-degree >= 1:
one ``lift`` of Psi and a filter.  The diagonal {u = v = 0} is therefore a critical
manifold with value zero, and the quadratic part of phi is u^T B(y, xt) v
with B the mixed Hessian d_x d_yt Psi.  This module owns the ring layout:
beside ``lift``, ``to_ring`` embeds a slow series in (y, xt) as a constant
in (u, v), and ``to_slow`` drops the (u, v) block again.

The good contour for the fast integral runs through the origin with
v = -conj(B0^T u), where B0 = B(0, 0) is the weight's Levi matrix
``Weight.levi``; on it the quadratic part equals -|B0^T u|^2.  Inversion
contours pair a point x with theta(x, y) built from the weight's
holomorphic gradient and Hessian; ``theta_pairing`` is the one formula for
(x - y).theta(x, y), ``theta_ratio`` the one for the defining inequality,
and the quality of either contour is the sampled margin of its inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadContour, DegenerateHessian
from .quadrature import sobol_ball
from .series import TruncatedSeries
from .weight import Weight, _pair_points, polarize

HESS_FLOOR = 1e-10
# Sobol samples behind every sampled contour margin.
MARGIN_SAMPLES = 10_000


@dataclass(frozen=True)
class PhaseData:
    """Phase series plus the pieces consumed by the expansion engine."""

    n: int
    maxdeg: int
    phi_uv: TruncatedSeries      # phi in (y, xt, u, v): every monomial has u- and v-degree >= 1
    quad_B: list                 # n x n nested list of series in (y, xt): d_x d_yt Psi
    b0: np.ndarray               # B at the origin: the weight's Levi matrix
    hess_det: complex            # det(b0)^2 = (-1)^n det of the fast Hessian [[0, B], [B^T, 0]]
    remainder: TruncatedSeries   # phi_uv with (u, v)-degree >= 3

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


def theta_ratio(w: Weight, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(phi(x) - phi(y) + Im((x - y).theta(x, y))) / |x - y|^2 at paired points.

    ``x`` and ``y`` are (m, n) arrays; either may be a single row.
    """
    return ((w.phi(x) - w.phi(y) + theta_pairing(w, x, y).imag)
            / (np.abs(x - y) ** 2).sum(axis=1))


def lift(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """f(x, xt) -> f(y + u, xt + v) in the (y, xt, u, v) ring."""
    subs = [TruncatedSeries.variable(j, 4 * n, f.maxdeg)
            + TruncatedSeries.variable(2 * n + j, 4 * n, f.maxdeg)
            for j in range(2 * n)]
    return f.substitute(subs)


def to_ring(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """s(y, xt) as a series in the (y, xt, u, v) ring, constant in (u, v)."""
    fast = (0,) * (2 * n)
    return TruncatedSeries(4 * n, s.maxdeg, {mi + fast: c for mi, c in s.coeffs.items()})


def to_slow(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """s in (y, xt) with its (u, v) block dropped; every term must have u- and v-degree 0."""
    return TruncatedSeries(2 * n, s.maxdeg, {mi[:2 * n]: c for mi, c in s.coeffs.items()})


def build_phase(w: Weight) -> PhaseData:
    """Assemble the four-point phase from one lift of Psi."""
    n = w.n
    psi = polarize(w)
    phi_uv = lift(psi, n).filter(lambda mi: any(mi[2 * n:3 * n]) and any(mi[3 * n:]))
    quad_B = [[psi.diff(j).diff(n + k) for k in range(n)] for j in range(n)]

    b0 = w.levi
    if np.linalg.svd(b0, compute_uv=False).min() <= HESS_FLOOR:
        raise DegenerateHessian(f"mixed block singular at the origin: {b0}")
    hess_det = complex(np.linalg.det(b0) ** 2)
    if abs(hess_det) <= HESS_FLOOR:
        raise DegenerateHessian(f"fast Hessian determinant {hess_det} too small")

    remainder = phi_uv.filter(lambda mi: sum(mi[2 * n:]) >= 3)

    return PhaseData(n=n, maxdeg=psi.maxdeg, phi_uv=phi_uv, quad_B=quad_B,
                     b0=b0, hess_det=hess_det, remainder=remainder)


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
    slow = np.zeros((u.shape[0], 2 * pd.n), dtype=complex)
    return pd.phi_uv.eval_grid(np.concatenate([slow, u, v], axis=1))


def verify_contour(pd: PhaseData, radius: float, seed: int = 0) -> float:
    """Sampled margin of the good contour: min of -Re(phi) / (|u|^2 + |v|^2)
    over MARGIN_SAMPLES fast samples u.  It must be strictly positive.
    """
    u, v = fast_uv(pd, sobol_ball(pd.n, radius, MARGIN_SAMPLES, seed=seed))
    vals = phase_on_contour(pd, u)
    denom = (np.abs(u) ** 2).sum(axis=1) + (np.abs(v) ** 2).sum(axis=1)
    keep = denom > (1e-8 * radius) ** 2
    margin = float((-vals[keep].real / denom[keep]).min())
    if margin <= 0.0:
        raise BadContour(
            f"amplitude contour margin {margin:.3e} is not positive at radius {radius}")
    return margin


def inversion_margin(w: Weight, radius: float, seed: int = 0) -> float:
    """Min of theta_ratio(0, y) over MARGIN_SAMPLES Sobol samples y near 0.

    This is the margin of the inversion contour y -> (y, theta(0, y)); it
    must be strictly positive.
    """
    xv = np.zeros((1, w.n), dtype=complex)
    y = sobol_ball(w.n, radius, MARGIN_SAMPLES, seed=seed)
    keep = (np.abs(y) ** 2).sum(axis=1) > (1e-8 * max(radius, 1.0)) ** 2
    margin = float(theta_ratio(w, xv, y[keep]).min())
    if margin <= 0.0:
        raise BadContour(
            f"inversion contour margin {margin:.3e} is not positive at radius {radius}")
    return margin
