"""Independent ground truth for the asymptotic kernel machinery.

Gram-matrix reproducing kernels, direct contour quadrature against the
stationary-phase expansion, numerical Fourier inversion on the theta
contour, localized elements, the pointwise-evaluation bound, and sampled
contour inequalities.  Everything here is built from plain quadrature and
linear algebra.  What is shared with the pipeline is named: theta_pairs,
its Jacobian and theta_ratio from phase, formal_expansion (which
sp_quadrature_check exists to check), and weighted_norm / check_domain from
projector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import BadContour, ConfigInvalid, IllConditioned, QuadratureUnderresolved
from .phase import (PhaseData, build_good_contour, phase_on_contour,
                    theta_jacobian_pairs, theta_pairs, theta_ratio)
from .amplitude import formal_expansion
from .projector import DomainSpec, KernelEvaluator, check_domain, weighted_norm
from .quadrature import disc_grid, radial_bump, sobol_ball
from .series import TruncatedSeries
from .weight import Weight, _as_points, _pair_points, quadratic_gap_estimate

# Sign of the theta-contour orientation, fixed once by requiring the
# Gaussian u = 1 inversion to return +1.  Guarded by a regression test.
CONTOUR_ORIENTATION = 1.0

GRAM_COND_CAP = 1e12
GRAM_HERMITIAN_TOL = 1e-12

# Fourier cutoff chi = 1 up to PLATEAU_FRAC * radius, 0 from SUPPORT_FRAC * radius.
FOURIER_PLATEAU_FRAC = 0.6
FOURIER_SUPPORT_FRAC = 0.9
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
    dom: DomainSpec
    h: float
    degree: int
    basis: tuple                 # multi-indices, degree-sorted
    gram: np.ndarray             # raw Hermitian Gram matrix
    scale: np.ndarray            # diagonal normalization applied before factoring
    chol: tuple                  # cho_factor of the scaled Gram matrix
    cond: float

    def eval(self, x, y) -> np.ndarray:
        """K_exact(x_i, conj(y_i)) for paired points (either may broadcast)."""
        xs, ys = _pair_points(x, y, self.w.n)
        base = self.w.base[None, :]
        a = _monomial_table(xs - base, self.basis) * self.scale[None, :]
        b = _monomial_table(ys - base, self.basis).conj() * self.scale[None, :]
        solved = cho_solve(self.chol, b.T)
        return np.einsum("pk,kp->p", a, solved)

    def project(self, u: TruncatedSeries, x) -> np.ndarray:
        """Quadrature projection of u through this kernel, at the points x."""
        nodes = self.dom.nodes
        uy = u.eval_grid(nodes - self.w.base[None, :])
        damp = self.dom.weights * np.exp(-2.0 * self.w.phi(nodes) / self.h)
        xs = _as_points(x, self.w.n)
        out = np.empty(xs.shape[0], dtype=complex)
        for i in range(xs.shape[0]):
            out[i] = (damp * self.eval(xs[i:i + 1], nodes) * uy).sum()
        return out


def _degree_basis(n: int, degree: int) -> tuple:
    idx = [alpha for alpha in itertools.product(range(degree + 1), repeat=n)
           if sum(alpha) <= degree]
    idx.sort(key=lambda a: (sum(a), a))
    return tuple(idx)


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
    """Brute-force reproducing kernel on monomials of total degree <= degree."""
    check_domain(dom, w)
    if h <= 0:
        raise ConfigInvalid(f"h must be positive, got {h}")
    if degree < 0:
        raise ConfigInvalid("basis degree must be nonnegative")
    if dom.n_angular < 4 * degree:
        raise ConfigInvalid(
            f"{dom.n_angular} angular nodes cannot resolve frequency {degree}; "
            f"need at least {4 * degree}")
    basis = _degree_basis(w.n, degree)
    # G = V^H diag(weights e^{-2 phi/h}) V over the quadrature nodes.
    V = _monomial_table(dom.nodes - w.base[None, :], basis)
    wts = dom.weights * np.exp(-2.0 * w.phi(dom.nodes) / h)
    G = V.conj().T @ (wts[:, None] * V)
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
        chol = cho_factor(Gs, lower=True)
    except LinAlgError as exc:
        raise IllConditioned(f"gram factorization failed: {exc}") from exc
    return GramKernel(w=w, dom=dom, h=float(h), degree=degree, basis=basis,
                      gram=G, scale=scale, chol=chol, cond=cond)


@dataclass(frozen=True)
class CompareStats:
    rel_errors: np.ndarray
    max_rel: float
    median_rel: float
    asym: np.ndarray
    exact: np.ndarray


def near_diagonal_pairs(radius: float, count: int = 20,
                        offset_frac: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic point pairs on and just off the diagonal, n = 1."""
    k = np.arange(count)
    x = radius * np.exp(2j * np.pi * k / count)
    y = x.copy()
    odd = k % 2 == 1
    y[odd] = x[odd] + offset_frac * radius * np.exp(2.4j * k[odd])
    return x[:, None], y[:, None]


def compare_kernels(K_asym: KernelEvaluator, K_exact: GramKernel,
                    x, y) -> CompareStats:
    a = K_asym.eval(x, y)
    g = K_exact.eval(x, y)
    rel = np.abs(a - g) / np.abs(g)
    return CompareStats(rel_errors=rel, max_rel=float(rel.max()),
                        median_rel=float(np.median(rel)), asym=a, exact=g)


# ---------------------------------------------------------------------------
# Fourier inversion on the theta contour


@dataclass(frozen=True)
class FourierCheck:
    value: complex
    target: complex
    residual: float
    h: float


def fourier_inversion_check(w: Weight, u: TruncatedSeries, x, radius: float,
                            n_radial: int, n_angular: int, h_values,
                            orientation: float = CONTOUR_ORIENTATION) -> list[FourierCheck]:
    """Inversion integral (2 pi h)^{-n} int e^{(i/h)(x-y) theta} u chi dy dtheta.

    The contour is parametrized by y with theta = theta(x, y), contributing
    the Jacobian det(d theta / d conj y) and a factor (2i)^n from rewriting
    d(conj y) wedge dy as Lebesgue measure.  Returns, for each h, the
    residual against u(x), damped by e^{-phi(x)/h}.  The grid, theta, its
    Jacobian and u(y) do not depend on h and are built once.
    """
    if w.n != 1:
        raise ConfigInvalid("fourier inversion quadrature is implemented for n = 1")
    if u.nvars != w.n:
        raise ConfigInvalid(f"u has {u.nvars} variables, expected {w.n}")
    xs = _as_points(x, w.n)
    plateau = FOURIER_PLATEAU_FRAC * radius
    support = FOURIER_SUPPORT_FRAC * radius
    if float(np.abs(xs - w.base[None, :]).max()) >= plateau:
        raise ConfigInvalid("evaluation point lies outside the cutoff plateau")

    nodes, wts = disc_grid(support, n_radial, n_angular, (plateau,))
    y = nodes[:, None] + w.base[None, :]
    chi = radial_bump(np.abs(nodes), plateau, support)
    th = theta_pairs(w, xs, y)
    jac = theta_jacobian_pairs(w, xs, y)
    pairing = ((xs - y) * th).sum(axis=1)
    uy = u.eval_grid(y - w.base[None, :])
    target = complex(u.eval_grid(xs - w.base[None, :])[0])
    phi_x = float(w.phi(xs)[0])
    checks = []
    for h in h_values:
        vals = np.exp(1j * pairing / h) * uy * chi * jac
        const = orientation * (2j) ** w.n / (2.0 * np.pi * h) ** w.n
        value = complex(const * (wts * vals).sum())
        residual = abs(value - target) * math.exp(-phi_x / h)
        checks.append(FourierCheck(value=value, target=target, residual=residual, h=h))
    return checks


# ---------------------------------------------------------------------------
# Pointwise evaluation bound


@dataclass(frozen=True)
class PointwiseBound:
    h_values: tuple
    ratios: tuple
    max_ratio: float


def pointwise_bound_check(w: Weight, u: TruncatedSeries, inner: DomainSpec,
                          outer: DomainSpec, h_values) -> PointwiseBound:
    """sup over the inner region of h^n |u| e^{-phi/h}, against the outer norm."""
    if max(inner.radii) >= max(outer.radii):
        raise ConfigInvalid("inner region must be strictly inside the outer one")
    check_domain(outer, w)
    ui = u.eval_grid(inner.nodes - w.base[None, :])
    uo = u.eval_grid(outer.nodes - w.base[None, :])
    phi_i = w.phi(inner.nodes)
    ratios = []
    for h in h_values:
        sup = float((np.abs(ui) * np.exp(-phi_i / h)).max())
        nrm = weighted_norm(w, uo, outer, h)
        ratios.append(h ** w.n * sup / nrm)
    return PointwiseBound(h_values=tuple(float(h) for h in h_values),
                          ratios=tuple(ratios), max_ratio=max(ratios))


# ---------------------------------------------------------------------------
# Contour inequalities


@dataclass(frozen=True)
class MarginSuite:
    theta_margin: float
    gz_margin: float
    ratio_min: float
    delta: float
    radius: float
    n_samples: int


def inequality_suite(w: Weight, z, delta: float, radius: float,
                     n_samples: int = 10_000, seed: int = 0) -> MarginSuite:
    """Sampled minima of the two contour inequalities; both must be positive.

    (a) phi(x) - phi(y) + Im((x - y).theta(x, y)) >= (delta + margin)|x - y|^2
    (b) phi(x) + phi(y) - 2 Re Psi(x, conj y) + delta|x - z|^2
          >= margin (|x - z|^2 + |y - z|^2)
    """
    if delta <= 0.0:
        raise ConfigInvalid("delta must be positive")
    if radius > w.trust_radius:
        raise ConfigInvalid("sampling radius exceeds the trust radius")
    z = np.asarray(z, dtype=complex).reshape(w.n)
    x = sobol_ball(w.n, radius, n_samples, seed=seed) + w.base[None, :]
    y = sobol_ball(w.n, radius, n_samples, seed=seed + 1) + w.base[None, :]

    keep = (np.abs(x - y) ** 2).sum(axis=1) > (1e-8 * radius) ** 2
    ratio_min = float(theta_ratio(w, x[keep], y[keep]).min())
    theta_margin = ratio_min - delta

    dz_x = (np.abs(x - z[None, :]) ** 2).sum(axis=1)
    dz_y = (np.abs(y - z[None, :]) ** 2).sum(axis=1)
    denom = dz_x + dz_y
    keep2 = denom > (1e-8 * radius) ** 2
    gap = w.phi(x) + w.phi(y) - 2.0 * w.psi(x, np.conj(y)).real
    gz_ratio = (gap[keep2] + delta * dz_x[keep2]) / denom[keep2]
    gz_margin = float(gz_ratio.min())

    if theta_margin <= 0.0:
        raise BadContour(
            f"theta-contour margin {theta_margin:.3e} not positive "
            f"(sampled constant {ratio_min:.4f}, delta {delta})")
    if gz_margin <= 0.0:
        raise BadContour(f"shifted-gap margin {gz_margin:.3e} not positive")
    return MarginSuite(theta_margin=theta_margin, gz_margin=gz_margin,
                       ratio_min=ratio_min, delta=delta,
                       radius=radius, n_samples=n_samples)


# ---------------------------------------------------------------------------
# Stationary-phase engine vs direct contour quadrature


@dataclass(frozen=True)
class QuadratureCase:
    name: str
    symbol: TruncatedSeries      # 2n variables, outgoing (x, yt) displacements
    terminating: bool


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


def _contour_radius(pd: PhaseData, contour, h: float) -> tuple[float, float]:
    """Smallest radius whose boundary decay suffices, else the best available.

    Returns (radius, g) with g = min of -Re(phi) on the bounding circle; the
    quadrature truncation error is of order e^{-2g/h}.
    """
    angles = np.exp(2j * np.pi * np.arange(SP_PROBE_ANGLES) / SP_PROBE_ANGLES)
    target = 19.0 * h
    best = (0.0, -np.inf)
    for rho in np.linspace(0.15, SP_MAX_RADIUS, SP_PROBE_RADII):
        vals = phase_on_contour(pd, contour, (rho * angles)[:, None])
        g = float(-vals.real.max())
        if g <= 0.0:
            break
        if g > best[1]:
            best = (rho, g)
        if g >= target:
            return rho, g
    if best[1] <= 0.0:
        raise BadContour("no positive-decay radius found for the fast contour")
    return best


def sp_quadrature_check(pd: PhaseData, cases, h_values,
                        hmax: int = 6) -> list[QuadratureResult]:
    """Direct quadrature of the fast contour integral against the expansion.

    The integral h^{-n} conj(b) int e^{(2/h) phi} f L(du) over the good
    contour through the base is compared with the formal series: exact
    agreement for terminating symbols, next-term bound otherwise.
    """
    if pd.n != 1:
        raise ConfigInvalid("contour quadrature oracle is implemented for n = 1")
    contour = build_good_contour(pd)
    b = complex(contour.b[0, 0])

    results = []
    for case in cases:
        f = case.symbol
        if f.nvars != 2 * pd.n:
            raise ConfigInvalid(f"case {case.name}: symbol must have {2 * pd.n} variables")
        terms = formal_expansion(pd, [f], hmax)
        vals = np.array([t.constant_term for t in terms])

        for h in h_values:
            rho, g = _contour_radius(pd, contour, h)
            nodes, wts = disc_grid(rho, SP_N_RADIAL, SP_N_ANGULAR)
            u = nodes[:, None]
            phi_vals = phase_on_contour(pd, contour, u)
            xfast, ytfast = contour.fast_map(u)
            fv = f.eval_grid(np.concatenate([xfast, ytfast], axis=1))
            quad = complex(np.conj(b) / h * (wts * np.exp(2.0 * phi_vals / h)
                                             * fv).sum())
            tail = math.exp(-2.0 * g / h) * max(abs(quad), 1.0)

            if case.terminating or not (np.abs(vals) > 0).any():
                # exact sum, or a series vanishing identically at the center
                partial = complex(np.polyval(vals[::-1], h))
                order_used, next_term = hmax, 0.0
                err = abs(quad - partial)
                budget = SP_TERMINATING_TOL * max(1.0, abs(partial))
                if tail > 0.25 * budget:
                    raise QuadratureUnderresolved(
                        f"case {case.name}: boundary decay e^(-2*{g:.3f}/{h}) "
                        f"too weak for the terminating tolerance")
                ok = err <= budget
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
            results.append(QuadratureResult(
                name=case.name, terminating=case.terminating, h=float(h),
                quad=quad, partial=partial, order_used=order_used,
                next_term=next_term, error=float(err), ok=bool(ok)))
    return results


# ---------------------------------------------------------------------------
# Localized elements


@dataclass(frozen=True)
class LocalizedElement:
    """v_z(x) = (2 pi h)^{-n} e^{(i/h)(x-z) theta(x,z)} v(z) chi(z) det(d_zbar theta)."""

    w: Weight
    z: np.ndarray
    h: float
    delta: float
    v_value: complex
    chi_value: float
    margin: float
    domination_C: float

    def eval(self, x) -> np.ndarray:
        xs = _as_points(x, self.w.n)
        th = theta_pairs(self.w, xs, self.z[None, :])
        jac = theta_jacobian_pairs(self.w, xs, self.z[None, :])
        pairing = ((xs - self.z[None, :]) * th).sum(axis=1)
        pref = self.v_value * self.chi_value / (2.0 * np.pi * self.h) ** self.w.n
        return pref * np.exp(1j * pairing / self.h) * jac


def localized_element(v: TruncatedSeries, z, w: Weight, h: float,
                      delta: float | None = None, plateau: float | None = None,
                      support: float | None = None, n_samples: int = 4096,
                      seed: int = 0) -> LocalizedElement:
    """Construct the localized element at z and assert its domination bound.

    The sampled bound is phi(x) - phi(z) + Im((x-z) theta(x,z)) >= delta
    |x-z|^2 over the support region; its minimum margin must be positive.
    """
    z = np.asarray(z, dtype=complex).reshape(w.n)
    if v.nvars != w.n:
        raise ConfigInvalid(f"v has {v.nvars} variables, expected {w.n}")
    plateau = 0.6 * w.trust_radius if plateau is None else plateau
    support = 0.9 * w.trust_radius if support is None else support
    zdist = float(np.abs(z - w.base).max())
    if zdist >= w.trust_radius:
        raise ConfigInvalid("z lies outside the trust region")
    if zdist > plateau:
        raise ConfigInvalid("cutoff plateau does not cover z")
    if delta is None:
        cmin, _ = quadratic_gap_estimate(w, support, n_samples=2048, seed=seed)
        delta = 0.5 * cmin

    x = sobol_ball(w.n, support, n_samples, seed=seed) + w.base[None, :]
    sep2 = (np.abs(x - z[None, :]) ** 2).sum(axis=1)
    keep = sep2 > (1e-8 * support) ** 2
    margin = float(theta_ratio(w, x[keep], z[None, :]).min()) - delta
    if margin <= 0.0:
        raise BadContour(
            f"localized element at {z} violates domination: margin {margin:.3e}")

    chi_value = float(radial_bump(np.array([zdist]), plateau, support)[0])
    v_value = complex(v.eval_grid((z - w.base)[None, :])[0])
    elem = LocalizedElement(w=w, z=z, h=float(h), delta=float(delta),
                            v_value=v_value, chi_value=chi_value, margin=margin,
                            domination_C=0.0)
    if v_value != 0:
        vals = np.abs(elem.eval(x)) * np.exp(-w.phi(x) / h)
        ref = (abs(v_value) * chi_value * h ** (-w.n)
               * math.exp(-float(w.phi(z[None, :])[0]) / h)
               * np.exp(-delta * sep2 / h))
        object.__setattr__(elem, "domination_C", float((vals / ref).max()))
    return elem
