"""Strictly plurisubharmonic weights and their polarizations.

A weight is a real-analytic real-valued function of x in C^n, handled here as
a truncated Taylor series in the 2n variables (x, conj(x)).  The table's
origin is the expansion point: every point, grid and sample in the package is
a displacement from it, so every domain is centred where the table is valid.
Realness is the Hermitian symmetry c[beta,alpha] =
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
from .quadrature import sampled_ratio, sobol_ball
from .series import TruncatedSeries

HERMITIAN_TOL = 1e-12
LEVI_EIG_FLOOR = 1e-10
GAP_SAMPLES = 4096


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
    """A validated weight: Taylor series around the origin plus a trust radius."""

    n: int
    series: TruncatedSeries     # 2n variables: x-block then conj-block
    trust_radius: float

    @property
    def levi(self) -> np.ndarray:
        """Levi matrix d2(phi)/dx_j dconj(x)_k at the origin: the Taylor
        coefficient at exponent e_j + e_(n+k), exactly Hermitian once
        ``validate_weight`` has symmetrized the table.  It is also Psi's
        mixed Hessian B0 at the origin, which fixes the phase's good contour."""
        n = self.n
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        return np.array([[self.series.coeff(unit[j] + unit[k]) for k in range(n)]
                         for j in range(n)], dtype=complex)

    def displacements(self, x) -> np.ndarray:
        """Map points to the 2n series coordinates (x, conj(x))."""
        pts = _as_points(x, self.n)
        return np.concatenate([pts, np.conj(pts)], axis=1)

    def phi(self, x) -> np.ndarray:
        """Evaluate the weight; the imaginary part is discarded (it is zero)."""
        vals = self.series.eval_grid(self.displacements(x))
        return vals.real

    def psi(self, x, ytilde) -> np.ndarray:
        """Polarization Psi(x, ytilde); Psi(x, conj x) = phi(x)."""
        pts = [_as_points(x, self.n), _as_points(ytilde, self.n)]
        return self.series.eval_grid(np.concatenate(pts, axis=1))

    def gap(self, x, y) -> np.ndarray:
        """phi(x) + phi(y) - 2 Re Psi(x, conj y) at paired points."""
        return self.phi(x) + self.phi(y) - 2.0 * self.psi(x, np.conj(y)).real


def validate_weight(series: TruncatedSeries, trust_radius: float) -> Weight:
    """Check realness and strict plurisubharmonicity; returns the Weight.

    The coefficient array is symmetrized after the Hermitian check so that
    downstream algebra sees an exactly real weight.
    """
    if series.nvars % 2 != 0:
        raise NotRealValued("weight series needs an even variable count (x and conj blocks)")
    n = series.nvars // 2
    if trust_radius <= 0.0:
        raise ConfigInvalid("trust radius must be positive")

    scale = max(series.max_abs(), 1.0)
    sym: dict[tuple, complex] = {}
    for mi, c in series.terms():
        partner = mi[n:] + mi[:n]
        cp = series.coeff(partner)
        if abs(c - np.conj(cp)) > HERMITIAN_TOL * scale:
            raise NotRealValued(
                f"coefficient at {mi} is {c}, partner at {partner} is {cp}; "
                "Hermitian symmetry violated")
        sym[mi] = 0.5 * (c + np.conj(cp))
    symmetric = TruncatedSeries(series.nvars, series.maxdeg, sym)

    w = Weight(n=n, series=symmetric, trust_radius=float(trust_radius))
    eigs = np.linalg.eigvalsh(w.levi)
    if eigs.min() <= LEVI_EIG_FLOOR:
        raise Degenerate(f"Levi form not strictly positive at the origin: eigenvalues {eigs}")
    return w


# Kept only because the benchmark tracer (perfbench/tracer.py) resolves it.
def polarize(w: Weight) -> TruncatedSeries:
    """Psi's series: the weight's own Taylor table, conj block read as ytilde."""
    return w.series


def quadratic_gap_estimate(w: Weight, radius: float, seed: int = 0) -> tuple[float, float]:
    """Bounds of w.gap(x, y) / |x-y|^2 over GAP_SAMPLES Sobol pairs.

    The pairs (x, y) are the first GAP_SAMPLES points of the 4n-dimensional
    sequence, one power-of-2 block mapped onto the ball of ``radius`` in
    C^(2n) by ``sobol_ball``, so no point is drawn and then rejected.  The
    gap must be strictly positive for a strictly plurisubharmonic weight;
    a nonpositive sampled minimum raises GapViolation.
    """
    if radius <= 0.0 or radius > w.trust_radius:
        raise ConfigInvalid("sampling radius must lie in (0, trust_radius]")
    pts = sobol_ball(2 * w.n, radius, GAP_SAMPLES, seed=seed)
    x, y = pts[:, :w.n], pts[:, w.n:]
    ratio = sampled_ratio(w.gap(x, y), (np.abs(x - y) ** 2).sum(axis=1), radius)
    cmin, cmax = float(ratio.min()), float(ratio.max())
    if cmin <= 0.0:
        raise GapViolation(f"sampled quadratic gap hit {cmin} at radius {radius}")
    return cmin, cmax
