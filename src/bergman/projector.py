"""Kernel assembly, weighted projection quadrature, and decay fits.

The asymptotic projection kernel is K(x, conj y) = h^{-n} exp((2/h) Psi(x,
conj y)) a(x, conj y; h) with a the realized amplitude.  Projections are
computed by weighted quadrature over a disc (or polydisc) against
exp(-2 phi / h), with Psi and phi both read from the kernel's one weight.
A kernel integrates once per quadrature grid and set of evaluation rows and
keeps the result keyed by the two: its monomial table holds, for every
holomorphic monomial y^t up to a degree, the quadrature of the kernel
against w_j y_j^t.  Each test function u is then a contraction of that
table with u's coefficients, so projecting several test functions costs one
pass of complex exp, not one per function.  Kernels that share the weight and h (the truncation orders
at one h) differ only in a, so projection_table builds their tables in one
pass: the factor e^{(2/h)(Psi - phi)} is computed once per block of rows and
multiplied by each distinct amplitude.  The table is built from Psi and a
in factored form X @ B, with the node-side factors B shared by every block
of evaluation rows; phi(y) is folded into the constant row of Psi's node
factor, so the combined exponent Psi - phi is formed inside the matrix
product and the integrand never overflows inside the trust region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .amplitude import Amplitude, RealizedSymbol, realize
from .errors import ConfigInvalid, DegenerateFit
from .quadrature import polydisc_grid
from .series import TruncatedSeries, _block_monomials, _monomial_table
from .weight import Weight, _as_points, _pair_points

# Elements of one (evaluation rows x quadrature nodes) block in projection_table.
BLOCK_ELEMENTS = 2 ** 18


@dataclass(frozen=True)
class DomainSpec:
    """Quadrature domain: nodes and Lebesgue weights over a (poly)disc.

    The grid is geometry only; it serves every h.
    """

    radii: tuple[float, ...]
    n_angular: int
    nodes: np.ndarray      # (m, n) complex
    weights: np.ndarray    # (m,) positive

    @property
    def n(self) -> int:
        return self.nodes.shape[1]


def make_domain(radii, n_radial: int = 64, n_angular: int = 128) -> DomainSpec:
    """Tensor grid over the polydisc with these radii (a disc for one radius)."""
    if np.isscalar(radii):
        radii = (float(radii),)
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ConfigInvalid(f"domain radii must be positive, got {radii}")
    nodes, weights = polydisc_grid(radii, n_radial, n_angular)
    return DomainSpec(radii=radii, n_angular=n_angular, nodes=nodes, weights=weights)


def check_domain(dom: DomainSpec, w: Weight) -> None:
    if dom.n != w.n:
        raise ConfigInvalid(f"domain dimension {dom.n} != weight dimension {w.n}")
    if max(dom.radii) > w.trust_radius:
        raise ConfigInvalid(
            f"domain radius {max(dom.radii)} exceeds trust radius {w.trust_radius}")


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates h^{-n} exp((2/h) Psi(x, conj y)) a(x, conj y) at point pairs.

    ``tables`` holds the monomial tables apply_projection reads, keyed by
    ``table_key`` (the bytes of the grid's nodes and weights and of the
    evaluation rows), so a table lives exactly as long as its kernel and is
    built against its one weight ``w``.  projection_table fills it, for one
    kernel on a miss in apply_projection or for several kernels that share
    the weight and h.
    """

    w: Weight
    symbol: RealizedSymbol
    h: float
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.w.n

    def eval(self, x, y) -> np.ndarray:
        xs, ys = _pair_points(x, y, self.n)
        pts = np.concatenate([xs, np.conj(ys)], axis=1)
        psi = self.w.series.eval_grid(pts)
        amp = self.symbol.series.eval_grid(pts)
        return self.h ** (-self.n) * np.exp(2.0 * psi / self.h) * amp


def assemble_kernel(w: Weight, amp: Amplitude, h: float) -> KernelEvaluator:
    if h <= 0:
        raise ConfigInvalid(f"h must be positive, got {h}")
    return KernelEvaluator(w=w, symbol=realize(amp, h), h=float(h))


def table_key(d: DomainSpec, xd: np.ndarray) -> tuple:
    """Where a kernel keeps its monomial table on grid ``d`` at rows ``xd``."""
    return (d.nodes.tobytes(), d.weights.tobytes(), xd.tobytes())


def projection_table(kernels: list[KernelEvaluator], d: DomainSpec,
                     xd: np.ndarray, degree: int) -> None:
    """Each kernel's monomial table on grid ``d`` at evaluation rows ``xd``.

    T[i, t] = sum_j e^{(2/h)(Psi(x_i, conj y_j) - phi(y_j))} a(x_i, conj y_j)
    w_j y_j^t for every monomial y^t of total degree <= ``degree``.  The
    kernels must share the weight and h, so they differ only in a: the
    exponential factor is computed once per block of rows and multiplied by
    each kernel's amplitude.  Kernels whose realized symbols are equal (orders
    cut at the same k) get one table between them.  Each kernel stores
    ({t: column of T}, T) in its ``tables`` under ``table_key``.
    """
    K0 = kernels[0]
    if any(K.w != K0.w or K.h != K0.h for K in kernels):
        raise ConfigInvalid("kernels sharing a projection table build need one weight and one h")
    monomials = _block_monomials(K0.n, degree)
    yd = np.conj(d.nodes)
    # Node-side factors, once per grid: Psi = X @ P and a = Xa @ Pa.  Row 0
    # of P multiplies the constant monomial, so subtracting phi(y) there
    # makes the GEMM return Psi - phi(y), which stays bounded where the
    # two terms alone overflow and underflow at small h.
    X, P = K0.w.series.bilinear_factors(xd, yd)
    P[0] -= K0.w.phi(d.nodes)
    symbols = list(dict.fromkeys(K.symbol.series for K in kernels))
    amps = [a.bilinear_factors(xd, yd) for a in symbols]
    load = d.weights[:, None] * _monomial_table(d.nodes, monomials)
    Ts = [np.empty((xd.shape[0], len(monomials)), dtype=complex) for _ in symbols]
    chunk = max(1, BLOCK_ELEMENTS // d.nodes.shape[0])
    # One exponent and one product buffer serve every block and kernel.
    shape = (min(chunk, xd.shape[0]), d.nodes.shape[0])
    E_buf, M_buf = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for lo in range(0, xd.shape[0], chunk):
        blk = slice(lo, lo + chunk)
        rows = min(chunk, xd.shape[0] - lo)
        E, M = E_buf[:rows], M_buf[:rows]
        np.matmul(X[blk], P, out=E)
        # Keep this separate pass between the GEMM and exp; do not fold
        # 2/h into P.  exp called straight on an OpenBLAS complex GEMM
        # result measured 10-16x slower: upper AVX-512 register state
        # left by the GEMM kernel slows the complex exp until another
        # ufunc runs.
        E *= 2.0 / K0.h
        np.exp(E, out=E)
        for (Xa, Pa), T in zip(amps, Ts):
            np.matmul(Xa[blk], Pa, out=M)
            # E first: the operand order fixes the rounding of the product.
            np.multiply(E, M, out=M)
            T[blk] = M @ load
    cols = {t: col for col, t in enumerate(monomials)}
    for K in kernels:
        K.tables[table_key(d, xd)] = cols, Ts[symbols.index(K.symbol.series)]


def apply_projection(K: KernelEvaluator, u: TruncatedSeries, w: Weight,
                     dom: DomainSpec, eval_pts) -> np.ndarray:
    """Quadrature for h^{-n} int e^{(2/h)(Psi(x, conj y) - phi(y))} a u(y) L(dy).

    ``u`` is a holomorphic polynomial in the n table coordinates.  The
    result is h^{-n} T @ c, with c the coefficients of u and T the kernel's
    monomial table (projection_table) on this grid at these points; a call
    whose u has a monomial the stored table lacks rebuilds it at u's degree.
    ``w`` must be the kernel's own weight.
    """
    if w != K.w:
        raise ConfigInvalid("the projection weight differs from the kernel's weight")
    if u.nvars != K.n:
        raise ConfigInvalid(f"test function has {u.nvars} variables, expected {K.n}")
    check_domain(dom, w)

    xd = _as_points(eval_pts, K.n)
    degree = max((sum(t) for t in u.coeffs), default=0)

    key = table_key(dom, xd)
    if not K.tables.get(key, ({}, None))[0].keys() >= u.coeffs.keys():
        projection_table([K], dom, xd, degree)
    cols, T = K.tables[key]
    c = np.zeros(len(cols), dtype=complex)
    for t, coef in u.coeffs.items():
        c[cols[t]] = coef
    return (T @ c) * K.h ** (-K.n)


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


def reproducing_error(K: KernelEvaluator, u: TruncatedSeries,
                      inner: DomainSpec, outer: DomainSpec) -> float:
    """Relative defect ||proj u - u|| over inner / ||u|| over outer, weighted by K.w."""
    if max(inner.radii) >= max(outer.radii):
        raise ConfigInvalid("inner domain must be strictly inside the outer one")
    proj = apply_projection(K, u, K.w, outer, inner.nodes)
    exact = u.eval_grid(inner.nodes)
    num = weighted_norm(K.w, proj - exact, inner, K.h)
    den = weighted_norm(K.w, u.eval_grid(outer.nodes), outer, K.h)
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
