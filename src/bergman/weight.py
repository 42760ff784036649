"""Strictly plurisubharmonic weights and their polarizations.

A weight is a real-analytic real-valued function of x in C^n, handled here as
a truncated Taylor series in the 2n displacement variables (x - x0, conj(x) -
conj(x0)).  Realness is the Hermitian symmetry c[beta,alpha] =
conj(c[alpha,beta]) of the coefficient array; strict plurisubharmonicity is
positive definiteness of the mixed-derivative (Levi) matrix.

The polarization Psi(x, ytilde) is the unique holomorphic extension: the
same Taylor table, with the anti-holomorphic block read as an independent
holomorphic variable ytilde.  Restricting ytilde back to conj(x) recovers
the weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigInvalid, Degenerate, GapViolation, NotRealValued,
                     VariableMismatch)
from .quadrature import sobol_ball
from .series import TruncatedSeries

HERMITIAN_TOL = 1e-12
LEVI_EIG_FLOOR = 1e-10


def _as_points(x, n: int) -> np.ndarray:
    pts = np.asarray(x, dtype=complex)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts[:, None] if n == 1 else pts[None, :]
    if pts.shape[1] != n:
        raise VariableMismatch(f"points have {pts.shape[1]} coordinates, expected {n}")
    return pts


def _pair_points(x, y, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Paired (m, n) point arrays; a single point on either side broadcasts."""
    xs = _as_points(x, n)
    ys = _as_points(y, n)
    if xs.shape[0] == 1 and ys.shape[0] > 1:
        xs = np.broadcast_to(xs, ys.shape)
    if ys.shape[0] == 1 and xs.shape[0] > 1:
        ys = np.broadcast_to(ys, xs.shape)
    return xs, ys


@dataclass(frozen=True)
class Weight:
    """A validated weight: Taylor series around ``base`` plus a trust radius."""

    n: int
    base: np.ndarray            # shape (n,), complex
    series: TruncatedSeries     # 2n variables: x-block then conj-block
    trust_radius: float

    @property
    def maxdeg(self) -> int:
        return self.series.maxdeg

    def displacements(self, x) -> np.ndarray:
        """Map ambient points to the 2n series coordinates (dx, conj(dx))."""
        pts = _as_points(x, self.n)
        dx = pts - self.base[None, :]
        return np.concatenate([dx, np.conj(dx)], axis=1)

    def phi(self, x) -> np.ndarray:
        """Evaluate the weight; the imaginary part is discarded (it is zero)."""
        vals = self.series.eval_grid(self.displacements(x))
        return vals.real

    def psi(self, x, ytilde) -> np.ndarray:
        """Polarization Psi(x, ytilde) at ambient points; Psi(x, conj x) = phi(x)."""
        xp = _as_points(x, self.n) - self.base[None, :]
        yp = _as_points(ytilde, self.n) - np.conj(self.base)[None, :]
        return self.series.eval_grid(np.concatenate([xp, yp], axis=1))


def validate_weight(series: TruncatedSeries, base, trust_radius: float) -> Weight:
    """Check realness and strict plurisubharmonicity; returns the Weight.

    The coefficient array is symmetrized after the Hermitian check so that
    downstream algebra sees an exactly real weight.
    """
    if series.nvars % 2 != 0:
        raise NotRealValued("weight series needs an even variable count (x and conj blocks)")
    n = series.nvars // 2
    base = np.asarray(base, dtype=complex).reshape(n)
    if trust_radius <= 0.0:
        raise ConfigInvalid("trust radius must be positive")

    scale = max(series.max_abs(), 1.0)
    sym: dict[tuple, complex] = {}
    for mi, c in series.coeffs.items():
        partner = mi[n:] + mi[:n]
        cp = series.coeffs.get(partner, 0.0 + 0.0j)
        if abs(c - np.conj(cp)) > HERMITIAN_TOL * scale:
            raise NotRealValued(
                f"coefficient at {mi} is {c}, partner at {partner} is {cp}; "
                "Hermitian symmetry violated")
        sym[mi] = 0.5 * (c + np.conj(cp))
    symmetric = TruncatedSeries(series.nvars, series.maxdeg, sym)

    w = Weight(n=n, base=base, series=symmetric, trust_radius=float(trust_radius))
    levi = levi_form(w, base)
    eigs = np.linalg.eigvalsh(levi)
    if eigs.min() <= LEVI_EIG_FLOOR:
        raise Degenerate(f"Levi form not strictly positive at the base: eigenvalues {eigs}")
    return w


def levi_form(w: Weight, x) -> np.ndarray:
    """Mixed second-derivative matrix d2(phi)/dx_j dconj(x)_k at a point."""
    pts = w.displacements(x)
    if pts.shape[0] != 1:
        raise VariableMismatch("levi_form evaluates one point at a time")
    n = w.n
    out = np.empty((n, n), dtype=complex)
    for j in range(n):
        dj = w.series.diff(j)
        for k in range(n):
            out[j, k] = dj.diff(n + k).eval_grid(pts)[0]
    # Clean roundoff: the matrix is Hermitian for a real weight.
    return 0.5 * (out + out.conj().T)


# Kept only because the benchmark tracer (perfbench/tracer.py) resolves it.
def polarize(w: Weight) -> TruncatedSeries:
    """Psi's series: the weight's own Taylor table, conj block read as ytilde."""
    return w.series


def quadratic_gap_estimate(w: Weight, radius: float, n_samples: int = 4096,
                           seed: int = 0) -> tuple[float, float]:
    """Sampled bounds for (phi(x) + phi(y) - 2 Re Psi(x, conj(y))) / |x-y|^2.

    The gap must be strictly positive for a strictly plurisubharmonic weight;
    a nonpositive sampled minimum raises GapViolation.
    """
    if radius <= 0.0 or radius > w.trust_radius:
        raise ConfigInvalid("sampling radius must lie in (0, trust_radius]")
    pts = sobol_ball(2 * w.n, radius, n_samples, seed=seed)
    x = pts[:, :w.n] + w.base[None, :]
    y = pts[:, w.n:] + w.base[None, :]
    sep2 = (np.abs(x - y) ** 2).sum(axis=1)
    keep = sep2 > (1e-6 * radius) ** 2
    x, y, sep2 = x[keep], y[keep], sep2[keep]
    gap = w.phi(x) + w.phi(y) - 2.0 * w.psi(x, np.conj(y)).real
    ratio = gap / sep2
    cmin, cmax = float(ratio.min()), float(ratio.max())
    if cmin <= 0.0:
        raise GapViolation(f"sampled quadratic gap hit {cmin} at radius {radius}")
    return cmin, cmax
