"""Kernel assembly, weighted projection quadrature, and decay fits.

The asymptotic projection kernel is K(x, conj y) = h^{-n} exp((2/h) Psi(x,
conj y)) a(x, conj y; h) with a the realized amplitude.  Projections are
computed by weighted quadrature over a disc (or polydisc) against
exp(-2 phi / h).  Psi and a are evaluated in factored form X @ B, with the
node-side factors B built once per quadrature grid and shared by every
block of evaluation rows; phi(y) is folded into the constant row of Psi's
node factor, so the combined exponent Psi - phi is formed inside the matrix
product and the integrand never overflows inside the trust region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitude import Amplitude, RealizedSymbol, realize
from .errors import ConfigInvalid, DegenerateFit, QuadratureUnderresolved
from .quadrature import polydisc_grid
from .series import TruncatedSeries
from .weight import Weight, _as_points, _pair_points

# Elements of one (evaluation rows x quadrature nodes) block in apply_projection.
BLOCK_ELEMENTS = 2 ** 18


@dataclass(frozen=True)
class DomainSpec:
    """Quadrature domain: nodes and Lebesgue weights over a (poly)disc.

    The grid is geometry only; it serves every h.
    """

    radii: tuple[float, ...]
    n_radial: int
    n_angular: int
    nodes: np.ndarray      # (m, n) complex
    weights: np.ndarray    # (m,) positive

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def refined(self, factor: int = 2) -> "DomainSpec":
        return make_domain(self.radii, self.n_radial * factor,
                           self.n_angular * factor)


def make_domain(radii, n_radial: int = 64, n_angular: int = 128) -> DomainSpec:
    """Tensor grid over the polydisc with these radii (a disc for one radius)."""
    if np.isscalar(radii):
        radii = (float(radii),)
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ConfigInvalid(f"domain radii must be positive, got {radii}")
    nodes, weights = polydisc_grid(radii, n_radial, n_angular)
    return DomainSpec(radii=radii, n_radial=n_radial, n_angular=n_angular,
                      nodes=nodes, weights=weights)


def check_domain(dom: DomainSpec, w: Weight) -> None:
    if dom.n != w.n:
        raise ConfigInvalid(f"domain dimension {dom.n} != weight dimension {w.n}")
    if max(dom.radii) > w.trust_radius:
        raise ConfigInvalid(
            f"domain radius {max(dom.radii)} exceeds trust radius {w.trust_radius}")


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates h^{-n} exp((2/h) Psi(x, conj y)) a(x, conj y) at point pairs."""

    w: Weight
    symbol: RealizedSymbol
    h: float

    @property
    def n(self) -> int:
        return self.w.n

    def eval(self, x, y) -> np.ndarray:
        xs, ys = _pair_points(x, y, self.n)
        base = self.w.base[None, :]
        pts = np.concatenate([xs - base, np.conj(ys - base)], axis=1)
        psi = self.w.series.eval_grid(pts)
        amp = self.symbol.series.eval_grid(pts)
        return self.h ** (-self.n) * np.exp(2.0 * psi / self.h) * amp


def assemble_kernel(w: Weight, amp: Amplitude, h: float) -> KernelEvaluator:
    if h <= 0:
        raise ConfigInvalid(f"h must be positive, got {h}")
    return KernelEvaluator(w=w, symbol=realize(amp, h), h=float(h))


def apply_projection(K: KernelEvaluator, u: TruncatedSeries, w: Weight,
                     dom: DomainSpec, eval_pts, tol: float | None = None) -> np.ndarray:
    """Quadrature for h^{-n} int e^{(2/h)(Psi(x, conj y) - phi(y))} a u(y) L(dy).

    ``u`` is a holomorphic polynomial in the n displacement coordinates.
    With ``tol`` set, the quadrature is repeated on a doubled grid and
    QuadratureUnderresolved is raised if the results differ by more than
    10 * tol.
    """
    if u.nvars != K.n:
        raise ConfigInvalid(f"test function has {u.nvars} variables, expected {K.n}")
    check_domain(dom, w)

    xd = _as_points(eval_pts, K.n) - K.w.base[None, :]

    def run(d: DomainSpec) -> np.ndarray:
        yd = np.conj(d.nodes - K.w.base[None, :])
        # Node-side factors, once per grid: Psi = X @ P and a = Xa @ Pa.  Row 0
        # of P multiplies the constant monomial, so subtracting phi(y) there
        # makes the GEMM return Psi - phi(y), which stays bounded where the
        # two terms alone overflow and underflow at small h.
        X, P = K.w.series.bilinear_factors(xd, yd)
        P[0] -= w.phi(d.nodes)
        Xa, Pa = K.symbol.series.bilinear_factors(xd, yd)
        load = d.weights * u.eval_grid(d.nodes - w.base[None, :])
        out = np.empty(xd.shape[0], dtype=complex)
        chunk = max(1, BLOCK_ELEMENTS // d.nodes.shape[0])
        for lo in range(0, xd.shape[0], chunk):
            blk = slice(lo, lo + chunk)
            E = X[blk] @ P
            # Keep this separate pass between the GEMM and exp; do not fold
            # 2/h into P.  exp called straight on an OpenBLAS complex GEMM
            # result measured 10-16x slower: upper AVX-512 register state
            # left by the GEMM kernel slows the complex exp until another
            # ufunc runs.
            E *= 2.0 / K.h
            np.exp(E, out=E)
            E *= Xa[blk] @ Pa
            out[blk] = E @ load
        return out * K.h ** (-K.n)

    vals = run(dom)
    if tol is not None:
        fine = run(dom.refined())
        drift = float(np.abs(vals - fine).max())
        if drift > 10.0 * tol:
            raise QuadratureUnderresolved(
                f"node doubling moved the projection by {drift:.3e} (> 10*{tol:.1e})")
    return vals


def weighted_norm(w: Weight, values: np.ndarray, dom: DomainSpec, h: float) -> float:
    """L2 norm against exp(-2 phi / h) over the domain's quadrature.

    The values are damped by exp(-phi / h) and scaled by their peak before
    squaring, so neither the square nor the damping overflows at small h.
    """
    mag = np.abs(values * np.exp(-w.phi(dom.nodes) / h))
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    return float(peak * np.sqrt((dom.weights * (mag / peak) ** 2).sum()))


def reproducing_error(K: KernelEvaluator, u: TruncatedSeries, w: Weight,
                      inner: DomainSpec, outer: DomainSpec) -> float:
    """Relative weighted defect: ||proj u - u|| over inner / ||u|| over outer."""
    if max(inner.radii) >= max(outer.radii):
        raise ConfigInvalid("inner domain must be strictly inside the outer one")
    proj = apply_projection(K, u, w, outer, inner.nodes)
    exact = u.eval_grid(inner.nodes - w.base[None, :])
    num = weighted_norm(w, proj - exact, inner, K.h)
    den = weighted_norm(w, u.eval_grid(outer.nodes - w.base[None, :]), outer, K.h)
    return num / den


@dataclass(frozen=True)
class DecayFit:
    beta: float
    r2: float
    alpha: float
    r2_loglog: float


FIT_FLOOR = 1e-12


def decay_fit(errors) -> DecayFit:
    """Least squares for log(err) = alpha - beta / h on (h, err) pairs.

    The power-law alternative log(err) = a + b log(h) is fitted alongside
    and its r^2 reported, so sequences that decay polynomially rather than
    exponentially are visible.  Sequences at the numerical floor raise
    DegenerateFit.
    """
    pairs = list(errors)
    if len(pairs) < 3:
        raise DegenerateFit("need at least three (h, error) pairs")
    h = np.asarray([p[0] for p in pairs], dtype=float)
    e = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(h <= 0.0):
        raise DegenerateFit("h values must be positive")
    if np.any(e <= 0.0):
        raise DegenerateFit("errors must be positive to fit a decay rate")
    if e.max() < FIT_FLOOR:
        raise DegenerateFit(f"errors below the floor {FIT_FLOOR}; nothing to fit")
    loge = np.log(e)
    if loge.max() - loge.min() < FIT_FLOOR:
        raise DegenerateFit("error sequence is flat; no decay rate to fit")

    def lstsq_r2(design: np.ndarray) -> tuple[np.ndarray, float]:
        coef, *_ = np.linalg.lstsq(design, loge, rcond=None)
        resid = loge - design @ coef
        sstot = float(((loge - loge.mean()) ** 2).sum())
        r2 = 1.0 - float((resid ** 2).sum()) / sstot
        return coef, r2

    coef, r2 = lstsq_r2(np.column_stack([np.ones_like(h), -1.0 / h]))
    _, r2_loglog = lstsq_r2(np.column_stack([np.ones_like(h), np.log(h)]))
    return DecayFit(beta=float(coef[1]), r2=r2, alpha=float(coef[0]),
                    r2_loglog=r2_loglog)
