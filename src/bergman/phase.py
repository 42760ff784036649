"""The four-point phase and its good contours.

From the polarization Psi of a weight the phase

    phi(y, xt; x, yt) = Psi(x, yt) - Psi(x, xt) - Psi(y, yt) + Psi(y, xt)

is built in the 4n-variable ring ordered (y-block, xt-block, x-block,
yt-block), all as displacements from the weight's base.  The diagonal
{x = y, yt = xt} is a critical manifold with value zero, and the quadratic
part in the fast displacements (u, v) = (x - y, yt - xt) is exactly
u^T B(y, xt) v with B the mixed block of Psi.

Good contours for the fast integral follow the family v = -conj(B^T u),
on which the quadratic part equals -|B^T u|^2.  Inversion contours pair a
point x with theta(x, y) built from the weight's holomorphic gradient and
Hessian; ``theta_ratio`` is the one formula for the defining inequality,
and the quality of either contour is the sampled margin of its inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadContour, CriticalStructureViolation, DegenerateHessian
from .quadrature import sobol_ball
from .series import TruncatedSeries
from .weight import Weight, _pair_points, polarize

GRAD_TOL = 1e-12
HESS_FLOOR = 1e-10


@dataclass(frozen=True)
class PhaseData:
    """Phase series plus the pieces consumed by the expansion engine."""

    n: int
    maxdeg: int
    phi4: TruncatedSeries        # variables (y, xt, x, yt)
    phi_uv: TruncatedSeries      # variables (y, xt, u, v) after x=y+u, yt=xt+v
    quad_B: list                 # n x n nested list of series in (y, xt)
    b0: np.ndarray               # B at the base point
    hess_det: complex            # fast-block Hessian determinant, sign-normalized
    remainder: TruncatedSeries   # phi_uv with (u, v)-degree >= 3


@dataclass(frozen=True)
class GoodContour:
    """Amplitude contour through (y0, xt0) with v = -conj(B^T u), B frozen there."""

    center: np.ndarray           # (2n,) displacement of (y0, xt0)
    b: np.ndarray                # B(y0, xt0), shape (n, n)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def fast_map(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u -> (x, yt) displacements through the center."""
        u = np.asarray(u, dtype=complex)
        if u.ndim == 1:
            u = u[:, None]
        v = -np.conj(u) @ np.conj(self.b)
        x = self.center[None, :self.n] + u
        yt = self.center[None, self.n:] + v
        return x, yt


def theta_pairs(w: Weight, x, y) -> np.ndarray:
    """theta(x_i, y_i) = (2/i)(grad phi(y) + (1/2) hess phi(y) (x - y))."""
    xs, ys = _pair_points(x, y, w.n)
    pts = w.displacements(ys)
    dxy = xs - ys
    m = ys.shape[0]
    th = np.empty((m, w.n), dtype=complex)
    for j in range(w.n):
        dj = w.series.diff(j)
        g = dj.eval_grid(pts)
        corr = np.zeros(m, dtype=complex)
        for k in range(w.n):
            corr += 0.5 * dj.diff(k).eval_grid(pts) * dxy[:, k]
        th[:, j] = (2.0 / 1j) * (g + corr)
    return th


def theta_jacobian_pairs(w: Weight, x, y) -> np.ndarray:
    """det of d(theta)/d(conj y) at paired points, shape (m,)."""
    n = w.n
    xs, ys = _pair_points(x, y, w.n)
    pts = w.displacements(ys)
    dxy = xs - ys
    m = ys.shape[0]
    jac = np.empty((m, n, n), dtype=complex)
    for j in range(n):
        dj = w.series.diff(j)
        for k in range(n):
            entry = dj.diff(n + k).eval_grid(pts)
            for l in range(n):
                entry += 0.5 * dj.diff(l).diff(n + k).eval_grid(pts) * dxy[:, l]
            jac[:, j, k] = (2.0 / 1j) * entry
    if n == 1:
        return jac[:, 0, 0]
    return np.linalg.det(jac)


def theta_ratio(w: Weight, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(phi(x) - phi(y) + Im((x - y).theta(x, y))) / |x - y|^2 at paired points.

    ``x`` and ``y`` are (m, n) arrays; either may be a single row.
    """
    d = x - y
    pairing = (d * theta_pairs(w, x, y)).sum(axis=1)
    return (w.phi(x) - w.phi(y) + pairing.imag) / (np.abs(d) ** 2).sum(axis=1)


def _embed_psi(psi: TruncatedSeries, n: int, first: int, second: int) -> TruncatedSeries:
    """Place Psi's two n-blocks at block positions ``first`` and ``second``."""
    positions = [first * n + j for j in range(n)] + [second * n + j for j in range(n)]
    return psi.rename(positions, 4 * n)


def _diag_restrict(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """Set x = y and yt = xt: collapse the fast blocks onto the slow ones."""
    positions = list(range(2 * n)) + list(range(2 * n))
    return s.rename(positions, 2 * n)


def build_phase(w: Weight) -> PhaseData:
    """Assemble the four-point phase and verify its critical structure."""
    n = w.n
    psi = polarize(w)
    maxdeg = psi.maxdeg
    phi4 = (_embed_psi(psi, n, 2, 3) - _embed_psi(psi, n, 2, 1)
            - _embed_psi(psi, n, 0, 3) + _embed_psi(psi, n, 0, 1))

    scale = max(psi.max_abs(), 1.0)
    for j in range(4 * n):
        g = _diag_restrict(phi4.diff(j), n)
        if g.max_abs() > GRAD_TOL * scale:
            raise CriticalStructureViolation(
                f"phase gradient in variable {j} does not vanish on the diagonal "
                f"(sup {g.max_abs():.3e})")

    # Fast displacement form: x = y + u, yt = xt + v in the (y, xt, u, v) ring.
    subs = []
    for j in range(n):
        subs.append(TruncatedSeries.variable(j, 4 * n, maxdeg))
    for j in range(n):
        subs.append(TruncatedSeries.variable(n + j, 4 * n, maxdeg))
    for j in range(n):
        subs.append(TruncatedSeries.variable(j, 4 * n, maxdeg)
                    + TruncatedSeries.variable(2 * n + j, 4 * n, maxdeg))
    for j in range(n):
        subs.append(TruncatedSeries.variable(n + j, 4 * n, maxdeg)
                    + TruncatedSeries.variable(3 * n + j, 4 * n, maxdeg))
    phi_uv = phi4.substitute(subs)

    def uv_deg(mi):
        return sum(mi[2 * n:])

    low = phi_uv.filter(lambda mi: uv_deg(mi) <= 2)
    bad = low.filter(lambda mi: uv_deg(mi) < 2
                     or sum(mi[2 * n:3 * n]) != 1 or sum(mi[3 * n:]) != 1)
    if bad.max_abs() > GRAD_TOL * scale:
        raise CriticalStructureViolation(
            f"fast quadratic part is not purely mixed (sup {bad.max_abs():.3e})")

    # Mixed block as series over the slow variables (fast exponents stripped).
    quad_B: list[list[TruncatedSeries]] = []
    for j in range(n):
        row = []
        for k in range(n):
            def pick(mi, j=j, k=k):
                u_part = mi[2 * n:3 * n]
                v_part = mi[3 * n:]
                return (sum(u_part) == 1 and u_part[j] == 1
                        and sum(v_part) == 1 and v_part[k] == 1)
            entry = {mi[:2 * n]: c for mi, c in phi_uv.coeffs.items() if pick(mi)}
            row.append(TruncatedSeries(2 * n, max(maxdeg - 2, 0), entry))
        quad_B.append(row)

    b0 = np.array([[quad_B[j][k].constant_term for k in range(n)] for j in range(n)])
    if np.linalg.svd(b0, compute_uv=False).min() <= HESS_FLOOR:
        raise DegenerateHessian(f"mixed block singular at the base: {b0}")

    # Full fast Hessian at the base; for the block structure its determinant
    # equals (-1)^n det(B)^2, so we store the sign-normalized value.
    fast = list(range(2 * n, 4 * n))
    H = np.empty((2 * n, 2 * n), dtype=complex)
    origin = np.zeros((1, 4 * n), dtype=complex)
    for a, va in enumerate(fast):
        da = phi4.diff(va)
        for b, vb in enumerate(fast):
            H[a, b] = da.diff(vb).eval_grid(origin)[0]
    hess_det = complex((-1) ** n * np.linalg.det(H))
    if abs(hess_det) <= HESS_FLOOR:
        raise DegenerateHessian(f"fast Hessian determinant {hess_det} too small")

    remainder = phi_uv.filter(lambda mi: uv_deg(mi) >= 3)

    return PhaseData(n=n, maxdeg=maxdeg, phi4=phi4, phi_uv=phi_uv, quad_B=quad_B,
                     b0=b0, hess_det=hess_det, remainder=remainder)


def eval_b(pd: PhaseData, center: np.ndarray) -> np.ndarray:
    """Numeric B(y0, xt0) at a slow displacement point."""
    pt = np.asarray(center, dtype=complex).reshape(1, 2 * pd.n)
    n = pd.n
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            out[j, k] = pd.quad_B[j][k].eval_grid(pt)[0]
    return out


def build_good_contour(pd: PhaseData, center=None) -> GoodContour:
    """Contour through (y0, xt0) with v = -conj(B^T u); B frozen at the center."""
    n = pd.n
    if center is None:
        center = np.zeros(2 * n, dtype=complex)
    center = np.asarray(center, dtype=complex).reshape(2 * n)
    b = eval_b(pd, center)
    if np.linalg.svd(b, compute_uv=False).min() <= HESS_FLOOR:
        raise DegenerateHessian(f"mixed block singular at contour center: {b}")
    return GoodContour(center=center, b=b)


def phase_on_contour(pd: PhaseData, c: GoodContour, u: np.ndarray) -> np.ndarray:
    """Evaluate phi at contour points parametrized by fast displacements u."""
    x, yt = c.fast_map(u)
    m = x.shape[0]
    slow = np.broadcast_to(c.center, (m, 2 * pd.n))
    pts = np.concatenate([slow, x, yt], axis=1)
    return pd.phi4.eval_grid(pts)


def verify_contour(pd: PhaseData, c: GoodContour, radius: float,
                   n_samples: int = 10_000, seed: int = 0) -> float:
    """Sampled margin of the good contour: min of -Re(phi) / (|u|^2 + |v|^2)
    over fast samples u.  It must be strictly positive.
    """
    u = sobol_ball(c.n, radius, n_samples, seed=seed)
    v = -np.conj(u) @ np.conj(c.b)
    vals = phase_on_contour(pd, c, u)
    denom = (np.abs(u) ** 2).sum(axis=1) + (np.abs(v) ** 2).sum(axis=1)
    keep = denom > (1e-8 * radius) ** 2
    margin = float((-vals[keep].real / denom[keep]).min())
    if margin <= 0.0:
        raise BadContour(
            f"amplitude contour margin {margin:.3e} is not positive at radius {radius}")
    return margin


def inversion_margin(w: Weight, x, radius: float, n_samples: int = 10_000,
                     seed: int = 0) -> float:
    """Sampled min of theta_ratio(x, y) over ambient samples y around the base.

    This is the margin of the inversion contour y -> (y, theta(x, y)); it
    must be strictly positive.
    """
    xv = np.asarray(x, dtype=complex).reshape(1, w.n)
    y = sobol_ball(w.n, radius, n_samples, seed=seed) + w.base[None, :]
    keep = (np.abs(xv - y) ** 2).sum(axis=1) > (1e-8 * max(radius, 1.0)) ** 2
    margin = float(theta_ratio(w, xv, y[keep]).min())
    if margin <= 0.0:
        raise BadContour(
            f"inversion contour margin {margin:.3e} is not positive at radius {radius}")
    return margin
