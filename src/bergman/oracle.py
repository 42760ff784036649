"""Independent ground truth for the asymptotic kernel machinery.

Gram-matrix reproducing kernels, direct contour quadrature against the
stationary-phase expansion, numerical Fourier inversion on the theta
contour, localized elements, the pointwise-evaluation bound, and sampled
contour inequalities.  Everything here is built from plain quadrature and
linear algebra.  What is shared with the pipeline is named: theta_pairs,
its Jacobian, theta_pairing and theta_ratio from phase, the gap Weight.gap,
formal_expansion (which sp_quadrature_check exists to check),
weighted_norm / check_domain and the grid's phi from projector, and from
series the monomial enumerator _block_monomials, which lists the Gram
basis.  quadrature.polar_moments, the node sums behind both the Gram matrix
and the contour quadrature, also builds the kernel stage's projection
tables; the Gram comparison stays independent of them, because it reads the
asymptotic kernel pointwise (KernelEvaluator.eval), which reads no table.
The Gram kernel's evaluation table, _monomial_table here, is the oracles'
own.  Sample counts and grids are constants of the check that uses them;
only the Sobol seed is an argument, and quadrature.sampled_ratio drops their
near-coincident samples.

Work that depends on neither h nor the test function is done once where it
lives.  Both the Gram matrix and the contour quadrature integrate
monomials r^p e^{ik theta} against a measure on a polar grid, so they read
every integral off the measure's polar moments H (quadrature.polar_moments:
one product with a table of e^{ik theta} per angular axis) and build no
node-by-monomial table.  A grid (DomainSpec.memo) keeps phi on its nodes
per weight, so gram_bergman forms the h-weighted measure and reads
G[s, t] = H[s + t, t - s].
sp_quadrature_check checks one (case, h) row on the contour of h (probe
radius and the moments of the disc's measure to the slow degree), which the
phase keeps for the h in use; each symbol's integral is a sum over its
terms of coefficient times moment.  fourier_inversion_check takes every
test function at once: the disc, chi, the theta pairing and its Jacobian
are built once per call and e^{-(i/h) y theta} once per h.

The Fourier check and the localized element sit at the table's origin, the
package's one expansion point, and the localized element is that of the
symbol 1.  A check at another point would be the same check on the weight
re-centered there, so these oracles take no point and no symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadContour, ConfigInvalid, IllConditioned, QuadratureUnderresolved
from .phase import (MARGIN_SAMPLES, PhaseData, phase_on_contour,
                    theta_jacobian_pairs, theta_pairing, theta_ratio)
from .amplitude import formal_expansion
from .projector import DomainSpec, KernelEvaluator, check_domain, weighted_norm
from .quadrature import (disc_grid, polar_moments, radial_bump, radial_nodes,
                         sampled_ratio, sobol_ball)
from .series import TruncatedSeries, _block_monomials
from .weight import Weight, _as_points

# Sign of the theta-contour orientation, fixed once by requiring the
# Gaussian u = 1 inversion to return +1.  Guarded by a regression test.
CONTOUR_ORIENTATION = 1.0

GRAM_COND_CAP = 1e12
GRAM_HERMITIAN_TOL = 1e-12

# Fourier cutoff chi = 1 up to PLATEAU_FRAC * radius, 0 from SUPPORT_FRAC * radius,
# integrated on an N_RADIAL x N_ANGULAR disc grid.
FOURIER_PLATEAU_FRAC = 0.6
FOURIER_SUPPORT_FRAC = 0.9
FOURIER_N_RADIAL = 96
FOURIER_N_ANGULAR = 192
LOCALIZED_SAMPLES = 4096
SP_MAX_RADIUS = 4.0
SP_PROBE_RADII = 48
SP_PROBE_ANGLES = 64
SP_N_RADIAL = 160
SP_N_ANGULAR = 256
SP_TERMINATING_TOL = 1e-8
SP_BOUND_FACTOR = 10.0


# ---------------------------------------------------------------------------
# Gram-matrix oracle


@dataclass(frozen=True)
class GramKernel:
    """Reproducing kernel of the monomial span under the weighted pairing."""

    w: Weight
    basis: tuple                 # multi-indices, degree-sorted
    gram: np.ndarray             # raw Hermitian Gram matrix
    onb: np.ndarray              # columns: an orthonormal basis of the span, in the monomials
    cond: float

    def _orthonormal(self, x) -> np.ndarray:
        """The orthonormal basis e_k at the points x, one row per point."""
        return _monomial_table(_as_points(x, self.w.n), self.basis) @ self.onb

    def eval(self, x, y) -> np.ndarray:
        """K_exact(x_i, conj(y_i)) = sum_k e_k(x_i) conj(e_k(y_i)); either side may broadcast."""
        return (self._orthonormal(x) * self._orthonormal(y).conj()).sum(axis=1)


def _monomial_table(disp: np.ndarray, basis: tuple) -> np.ndarray:
    """Columns disp^alpha for alpha in the basis, rows of disp (m, n)."""
    out = np.empty((disp.shape[0], len(basis)), dtype=complex)
    for col, alpha in enumerate(basis):
        acc = np.ones(disp.shape[0], dtype=complex)
        for j, a in enumerate(alpha):
            if a:
                acc = acc * disp[:, j] ** a
        out[:, col] = acc
    return out


def gram_bergman(w: Weight, dom: DomainSpec, h: float, degree: int) -> GramKernel:
    """Brute-force reproducing kernel on monomials of total degree <= degree.

    G[s, t] = sum_nodes weights e^{-2 phi/h} conj(y^s) y^t is read off the
    polar moments of the weighted measure, G[s, t] = H[s + t, t - s], and
    no node-by-basis table is formed.  phi on the nodes comes from the
    grid's memo.
    """
    check_domain(dom, w)
    if h <= 0:
        raise ConfigInvalid(f"h must be positive, got {h}")
    if degree < 0:
        raise ConfigInvalid("basis degree must be nonnegative")
    if dom.n_angular < 4 * degree:
        raise ConfigInvalid(
            f"{dom.n_angular} angular nodes cannot resolve frequency {degree}; "
            f"need at least {4 * degree}")
    basis = tuple(sorted(_block_monomials(w.n, degree), key=lambda a: (sum(a), a)))
    wts = dom.weights * np.exp(-2.0 * dom.phi(w) / h)
    H = polar_moments(wts, dom.radii, dom.n_radial, dom.n_angular, 2 * degree,
                      (-degree, degree))
    S = np.array(basis)
    G = H[tuple(i for j in range(w.n) for i in (S[:, None, j] + S[None, :, j],
                                                  S[None, :, j] - S[:, None, j]))]
    herm = np.abs(G - G.conj().T).max() / max(np.abs(G).max(), 1e-300)
    if herm > GRAM_HERMITIAN_TOL:
        raise IllConditioned(f"gram matrix departs from Hermitian by {herm:.3e}")
    G = 0.5 * (G + G.conj().T)
    diag = G.diagonal().real
    if np.any(diag <= 0.0):
        raise IllConditioned("gram matrix has a nonpositive diagonal entry")
    scale = 1.0 / np.sqrt(diag)
    Gs = scale[:, None] * G * scale[None, :]
    cond = float(np.linalg.cond(Gs))
    if cond > GRAM_COND_CAP:
        raise IllConditioned(
            f"scaled gram condition {cond:.3e} exceeds {GRAM_COND_CAP:.0e}; "
            f"lower the degree or raise h")
    try:
        chol = np.linalg.cholesky(Gs)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"gram factorization failed: {exc}") from exc
    # G = diag(1/scale) L L^H diag(1/scale), so diag(scale) L^{-H} is orthonormal
    onb = scale[:, None] * np.linalg.inv(chol).conj().T
    return GramKernel(w=w, basis=basis, gram=G, onb=onb, cond=cond)


@dataclass(frozen=True)
class CompareStats:
    max_rel: float
    median_rel: float


def near_diagonal_pairs(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """20 deterministic point pairs on a circle of ``radius``, n = 1: the even
    ones on the diagonal, the odd ones moved off it by 0.3 * radius."""
    k = np.arange(20)
    x = radius * np.exp(2j * np.pi * k / k.size)
    y = x.copy()
    odd = k % 2 == 1
    y[odd] = x[odd] + 0.3 * radius * np.exp(2.4j * k[odd])
    return x[:, None], y[:, None]


def compare_kernels(K_asym: KernelEvaluator, K_exact: GramKernel,
                    x, y) -> CompareStats:
    a = K_asym.eval(x, y)
    g = K_exact.eval(x, y)
    rel = np.abs(a - g) / np.abs(g)
    return CompareStats(max_rel=float(rel.max()), median_rel=_median(rel))


def _median(x: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, by one sort: np.median's first
    call imports numpy.ma."""
    s, mid = np.sort(x), x.size // 2
    return float(s[mid] if x.size % 2 else (s[mid - 1] + s[mid]) / 2)


# ---------------------------------------------------------------------------
# Fourier inversion on the theta contour


@dataclass(frozen=True)
class FourierCheck:
    value: complex
    target: complex
    residual: float
    h: float


def fourier_inversion_check(w: Weight, us: list[TruncatedSeries], radius: float,
                            h_values) -> list[list[FourierCheck]]:
    """Inversion integral (2 pi h)^{-n} int e^{-(i/h) y theta} u chi dy dtheta
    at the origin.

    The contour is parametrized by y with theta = theta(0, y), contributing
    the Jacobian det(d theta / d conj y) and a factor (2i)^n from rewriting
    d(conj y) wedge dy as Lebesgue measure.  Returns, for each test
    function u in ``us``, the list over h of the residual against u(0),
    damped by e^{-phi(0)/h}.  The grid, chi, theta's pairing and Jacobian
    depend on neither h nor u and are built once; e^{-(i/h) y theta} is
    built once per h and serves every u.
    """
    if w.n != 1:
        raise ConfigInvalid("fourier inversion quadrature is implemented for n = 1")
    for u in us:
        if u.nvars != w.n:
            raise ConfigInvalid(f"u has {u.nvars} variables, expected {w.n}")
    origin = np.zeros((1, w.n), dtype=complex)
    plateau = FOURIER_PLATEAU_FRAC * radius
    support = FOURIER_SUPPORT_FRAC * radius

    nodes, wts = disc_grid(support, FOURIER_N_RADIAL, FOURIER_N_ANGULAR, (plateau,))
    y = nodes[:, None]
    chi = radial_bump(np.abs(nodes), plateau, support)
    jac = theta_jacobian_pairs(w, origin, y)
    pairing = theta_pairing(w, origin, y)
    phi0 = float(w.phi(origin)[0])
    uys = [u.eval_grid(y) for u in us]
    targets = [complex(u.constant_term) for u in us]
    checks = [[] for _ in us]
    for h in h_values:
        wave = np.exp(1j * pairing / h)
        const = CONTOUR_ORIENTATION * (2j) ** w.n / (2.0 * np.pi * h) ** w.n
        for uy, target, out in zip(uys, targets, checks):
            vals = wave * uy * chi * jac
            value = complex(const * (wts * vals).sum())
            residual = abs(value - target) * math.exp(-phi0 / h)
            out.append(FourierCheck(value=value, target=target, residual=residual, h=h))
    return checks


# ---------------------------------------------------------------------------
# Pointwise evaluation bound


@dataclass(frozen=True)
class PointwiseBound:
    ratios: tuple
    max_ratio: float


def pointwise_bound_check(w: Weight, u: TruncatedSeries, inner: DomainSpec,
                          outer: DomainSpec, h_values) -> PointwiseBound:
    """sup over the inner region of h^{n/2} |u| e^{-phi/h}, against the outer
    norm; the Bergman bound |u| e^{-phi/h} <= C h^{-n/2} ||u|| keeps it O(1)."""
    if max(inner.radii) >= max(outer.radii):
        raise ConfigInvalid("inner region must be strictly inside the outer one")
    check_domain(outer, w)
    ui = u.eval_grid(inner.nodes)
    uo = u.eval_grid(outer.nodes)
    phi_i = inner.phi(w)
    ratios = []
    for h in h_values:
        sup = float((np.abs(ui) * np.exp(-phi_i / h)).max())
        nrm = weighted_norm(w, uo, outer, h)
        ratios.append(h ** (w.n / 2) * sup / nrm)
    return PointwiseBound(ratios=tuple(ratios), max_ratio=max(ratios))


# ---------------------------------------------------------------------------
# Contour inequalities


@dataclass(frozen=True)
class MarginSuite:
    theta_margin: float
    gz_margin: float
    ratio_min: float
    delta: float
    radius: float


def inequality_suite(w: Weight, delta: float, radius: float,
                     seed: int = 0) -> MarginSuite:
    """Sampled minima of the two contour inequalities; both must be positive.

    (a) phi(x) - phi(y) + Im((x - y).theta(x, y)) >= (delta + margin)|x - y|^2
    (b) phi(x) + phi(y) - 2 Re Psi(x, conj y) + delta|x|^2
          >= margin (|x|^2 + |y|^2)

    MARGIN_SAMPLES samples x, y lie in the ball of ``radius`` around the origin.
    """
    if delta <= 0.0:
        raise ConfigInvalid("delta must be positive")
    if radius > w.trust_radius:
        raise ConfigInvalid("sampling radius exceeds the trust radius")
    x = sobol_ball(w.n, radius, MARGIN_SAMPLES, seed=seed)
    y = sobol_ball(w.n, radius, MARGIN_SAMPLES, seed=seed + 1)

    ratio_min = float(theta_ratio(w, x, y, radius).min())
    theta_margin = ratio_min - delta

    dz_x = (np.abs(x) ** 2).sum(axis=1)
    denom = dz_x + (np.abs(y) ** 2).sum(axis=1)
    gz_margin = float(sampled_ratio(w.gap(x, y) + delta * dz_x, denom, radius).min())

    if theta_margin <= 0.0:
        raise BadContour(
            f"theta-contour margin {theta_margin:.3e} not positive "
            f"(sampled constant {ratio_min:.4f}, delta {delta})")
    if gz_margin <= 0.0:
        raise BadContour(f"shifted-gap margin {gz_margin:.3e} not positive")
    return MarginSuite(theta_margin=theta_margin, gz_margin=gz_margin,
                       ratio_min=ratio_min, delta=delta, radius=radius)


# ---------------------------------------------------------------------------
# Stationary-phase engine vs direct contour quadrature


@dataclass(frozen=True)
class QuadratureCase:
    name: str
    symbol: TruncatedSeries      # 2n variables, outgoing (x, yt) displacements


@dataclass(frozen=True)
class QuadratureResult:
    name: str
    terminating: bool
    h: float
    quad: complex
    partial: complex
    order_used: int
    next_term: float
    error: float
    ok: bool


def _contour_radius(pd: PhaseData, h: float) -> tuple[float, float]:
    """Smallest radius whose boundary decay suffices, else the best available.

    Returns (radius, g) with g = min of -Re(phi) on the bounding circle; the
    quadrature truncation error is of order e^{-2g/h}.  All probe circles
    are evaluated at once; the scan stops at the first circle without decay.
    """
    angles = np.exp(2j * np.pi * np.arange(SP_PROBE_ANGLES) / SP_PROBE_ANGLES)
    rhos = np.linspace(0.15, SP_MAX_RADIUS, SP_PROBE_RADII)
    vals = phase_on_contour(pd, (rhos[:, None] * angles).reshape(-1, 1))
    decay = -vals.real.reshape(SP_PROBE_RADII, SP_PROBE_ANGLES).max(axis=1)
    target = 19.0 * h
    best = (0.0, -np.inf)
    for rho, g in zip(rhos, decay.tolist()):
        if g <= 0.0:
            break
        if g > best[1]:
            best = (rho, g)
        if g >= target:
            return rho, g
    if best[1] <= 0.0:
        raise BadContour("no positive-decay radius found for the fast contour")
    return best


def _sp_contour(pd: PhaseData, h: float) -> tuple[float, np.ndarray]:
    """(g, H) of the quadrature disc at h: H = polar_moments of the measure
    wts * e^{2 phi/h} to the phase's slow degree, from which every symbol's
    integral is read.  Both depend on (pd, h) alone, so the phase's memo
    keeps them for the live h; a call at another h replaces them.

    phi on the disc's radii x angles grid is summed term by term in polar
    form, u^a v^b = (-conj b0)^b r^(a+b) e^{i(a-b) theta}, one outer product
    per term: no array larger than the grid is formed, where the nodes'
    power tables would each be several grids in size.
    """
    live = pd.memo.get("sp_contour")
    if live is None or live[0] != h:
        rho, g = _contour_radius(pd, h)
        r, wr = radial_nodes(rho, SP_N_RADIAL)
        wave = np.exp(2j * np.pi * np.arange(SP_N_ANGULAR) / SP_N_ANGULAR)
        vb = -np.conj(pd.b0[0, 0])
        phi = sum(c * vb ** be * np.outer(r ** (al + be), wave ** (al - be))
                  for (al, be), c in pd.phi0.terms())
        # disc_grid's weights, one row per radius
        measure = (wr * r * (2.0 * np.pi / SP_N_ANGULAR))[:, None] * np.exp(2.0 * phi / h)
        deg = pd.slow_deg
        H = polar_moments(measure.ravel(), (rho,), SP_N_RADIAL, SP_N_ANGULAR, 2 * deg, (-deg, deg))
        live = pd.memo["sp_contour"] = (h, g, H)
    return live[1:]


def _sp_expansion(pd: PhaseData, symbol: TruncatedSeries, hmax: int) -> np.ndarray:
    """The expansion's h^0..h^hmax coefficients at the center.  Every h of a
    case reads the same ones, so the phase's memo keeps them by (symbol,
    hmax)."""
    key = ("sp_expansion", symbol, hmax)
    if key not in pd.memo:
        pd.memo[key] = np.array(
            [t.constant_term for t in formal_expansion(pd, [symbol], hmax)])
    return pd.memo[key]


def sp_quadrature_check(pd: PhaseData, case: QuadratureCase, h: float,
                        hmax: int) -> QuadratureResult:
    """Direct quadrature of the fast contour integral against the expansion.

    The integral h^{-n} conj(b0) int e^{(2/h) phi} f L(du) over the good
    contour through the origin is compared with the formal series: exact
    agreement when the phase has no remainder of (u, v)-degree >= 3 (the
    expansion terminates), next-term bound otherwise.  On the contour
    v = -conj(b0) conj(u), so with u = r e^{i theta} a term u^a v^b is
    (-conj b0)^b r^(a+b) e^{i(a-b) theta}, and the integral is read off the
    moments H of the phase's live contour of h (``_sp_contour``).  The
    expansion is formed once per (symbol, hmax) and phase
    (``_sp_expansion``).
    """
    if pd.n != 1:
        raise ConfigInvalid("contour quadrature oracle is implemented for n = 1")
    if hmax < 1:
        raise ConfigInvalid(f"hmax must be at least 1, got {hmax}")
    if case.symbol.nvars != 2 * pd.n:
        raise ConfigInvalid(f"case {case.name}: symbol must have {2 * pd.n} variables")
    if case.symbol.maxdeg > pd.slow_deg:
        raise ConfigInvalid(f"case {case.name}: symbol degree {case.symbol.maxdeg} "
                            f"exceeds the phase's slow degree {pd.slow_deg}")
    b = complex(pd.b0[0, 0])
    terminating = not pd.remainder
    vals = _sp_expansion(pd, case.symbol, hmax)

    g, H = _sp_contour(pd, h)
    vb = -np.conj(b)       # v = vb conj(u) on the contour
    quad = complex(np.conj(b) / h * sum(c * vb ** be * H[al + be, al - be]
                                        for (al, be), c in case.symbol.terms()))
    tail = math.exp(-2.0 * g / h) * max(abs(quad), 1.0)

    if terminating or not (np.abs(vals) > 0).any():
        # exact sum, or a series vanishing identically at the center
        partial = complex(np.polyval(vals[::-1], h))
        order_used, next_term = hmax, 0.0
        err = abs(quad - partial)
        # the tail is weighed against what the contour captures, not
        # against the expansion, whose size can hide a contour that
        # captures nothing of it
        if tail > 0.25 * SP_TERMINATING_TOL * max(1.0, abs(quad)):
            raise QuadratureUnderresolved(
                f"case {case.name}: boundary decay e^(-2*{g:.3f}/{h}) "
                f"too weak for the terminating tolerance")
        ok = err <= SP_TERMINATING_TOL * max(1.0, abs(partial))
    else:
        nxt = np.abs(vals[1:]) * h ** np.arange(1, hmax + 1)
        # optimal truncation; exact zeros are skipped as next terms
        masked = np.where(nxt > 0, nxt, np.inf)
        order_used = int(np.argmin(masked)) if np.isfinite(masked).any() else 0
        next_term = float(nxt[order_used])
        partial = complex(np.polyval(vals[:order_used + 1][::-1], h))
        err = abs(quad - partial)
        if tail > 0.5 * next_term:
            raise QuadratureUnderresolved(
                f"case {case.name}: contour tail {tail:.3e} overwhelms "
                f"the next-term bound {next_term:.3e} at h = {h}")
        ok = err <= SP_BOUND_FACTOR * next_term
    return QuadratureResult(
        name=case.name, terminating=terminating, h=float(h),
        quad=quad, partial=partial, order_used=order_used,
        next_term=next_term, error=float(err), ok=bool(ok))


# ---------------------------------------------------------------------------
# Localized elements


@dataclass(frozen=True)
class LocalizedElement:
    """The localized element of the symbol 1 at the origin,
    v_0(x) = (2 pi h)^{-n} e^{(i/h) x theta(x,0)} det(d_zbar theta(x,0))."""

    w: Weight
    h: float
    delta: float
    margin: float
    domination_C: float

    def eval(self, x) -> np.ndarray:
        xs = _as_points(x, self.w.n)
        origin = np.zeros((1, self.w.n), dtype=complex)
        jac = theta_jacobian_pairs(self.w, xs, origin)
        pairing = theta_pairing(self.w, xs, origin)
        pref = 1.0 / (2.0 * np.pi * self.h) ** self.w.n
        return pref * np.exp(1j * pairing / self.h) * jac


def localized_element(w: Weight, h: float, delta: float, seed: int = 0) -> LocalizedElement:
    """Construct the localized element at the origin and assert its domination bound.

    The cutoff is 1 up to 0.6 and 0 from 0.9 times the trust radius, so it
    is 1 at the origin.  The bound phi(x) - phi(0) + Im(x theta(x,0)) >=
    delta |x|^2 is sampled at LOCALIZED_SAMPLES points of that support; its
    minimum margin must be positive.
    """
    support = 0.9 * w.trust_radius
    origin = np.zeros((1, w.n), dtype=complex)
    x = sobol_ball(w.n, support, LOCALIZED_SAMPLES, seed=seed)
    margin = float(theta_ratio(w, x, origin, support).min()) - delta
    if margin <= 0.0:
        raise BadContour(
            f"localized element at the origin violates domination: margin {margin:.3e}")

    elem = LocalizedElement(w=w, h=float(h), delta=float(delta), margin=margin,
                            domination_C=0.0)
    vals = np.abs(elem.eval(x)) * np.exp(-w.phi(x) / h)
    sep2 = (np.abs(x) ** 2).sum(axis=1)
    ref = (h ** (-w.n) * math.exp(-float(w.phi(origin)[0]) / h)
           * np.exp(-delta * sep2 / h))
    return replace(elem, domination_C=float((vals / ref).max()))
