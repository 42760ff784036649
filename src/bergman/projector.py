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
pass of complex exp, not one per function.  Kernels that share the weight
and h (the truncation orders at one h) differ only in a, so
projection_table builds their tables in one pass: the measure
e^{(2/h)(Psi - phi)} w of each evaluation row is formed once, and each
distinct amplitude a = sum A[alpha, beta] x^alpha conj(y)^beta reads its
table off the row's polar moments H (quadrature.polar_moments, the node
sums the Gram and contour oracles read too), T[i, t] = sum_beta
(x_i^alpha A)[i, beta] H_i[beta + t, t - beta], so no amplitude is
evaluated at the nodes.  Psi - phi is one matrix product: phi(y) is folded
into the constant row of Psi's node-side factor, so the integrand never
overflows inside the trust region.  phi(y) comes from the grid, which
evaluates it once per weight (DomainSpec.phi) for every table build and
every weighted_norm on it.

The table is holomorphic in each x_j, since the amplitude is an analytic
symbol, so Cauchy's formula gives many rows from one torus around them:
the pass sums the kernel at the M^n points of |x_j| = R_j (R_j the largest
|x_j| of the rows; torus_points) and two probes, and reads the rows off the
torus's discrete Fourier transform (the trapezoid rule for Cauchy's
integral).  The probes, summed directly, are the row nearest to the origin
and the point (R_j e^{i pi / M})_j halfway between torus points: the
reconstruction's error peaks on the torus (maximum modulus) and is zero at
its points, so a row on the torus would check nothing.  The torus is used
only if it is finite and reproduces both probes to within TORUS_TOL of each
probe's largest entry; otherwise every row is summed directly, as for
gaussian at h = 0.01 (rounding at the cancellation scale e^{max phi / 2h})
and product-2d at h = 0.05 (16 points per variable do not resolve the
table).  On the canonical configs accepted tables agree with their direct
sums within 2.5e-15 of the table's peak.

No row's quadrature depends on another's, so projection_table hands its
row chunks to up to ROW_THREADS threads, each with its own share of one
BLOCK_ELEMENTS exponent buffer.  A chunk's GEMM, exp, moments and einsum
run as on one thread, so the tables are bit for bit those of one thread.
The threads run only where the package holds OpenBLAS to one thread
(bergman.BLAS_ONE_THREAD): a second BLAS thread spin-waits between the
small products and takes the CPU a row thread would use.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_ONE_THREAD
from .amplitude import Amplitude, RealizedSymbol, realize
from .errors import ConfigInvalid, DegenerateFit, IllConditioned
from .quadrature import angular_table, moment_reader, polydisc_grid, radial_nodes
from .series import TruncatedSeries, _block_monomials, _monomial_table
from .weight import Weight, _as_points, _pair_points

# Elements of one (evaluation rows x quadrature nodes) block in projection_table.
# Its two complex buffers take 2 MiB each at 2^17.  At 2^18 (4 MiB each) the
# kernel stage's memory peak stepped by about 3.5 MB with the heap layout:
# one print() before the run moved product-2d's peak between 55.1 and
# 51.7 MB, while at 2^17 it reads 49.0 MB either way.  The tables do not
# depend on the block size.
BLOCK_ELEMENTS = 2 ** 17
# The most and the fewest points per variable of the torus projection_table
# sums the kernel on (torus_points), and how closely the torus must
# reproduce its directly summed probes, relative to each probe's largest
# entry, before the rows are read off it.
TORUS_POINTS = 32
TORUS_LEAST = 16
TORUS_TOL = 2.0 ** -46
# Elements of the partial sums that read the rows off the torus at once
# (256 KiB).  Reading all of product-2d's 1024 rows at once raised the
# traced peak of its table build from 3.6 to 5.2 MiB, beside the exponent
# buffer; in these chunks it is 3.7 MiB.  One variable's 1152 rows fit in
# one chunk.
TAYLOR_ELEMENTS = 2 ** 14
# Rows whose polar moments projection_table forms at once: a few rows keep
# the moments' intermediates small beside the block's exponent buffer.
MOMENT_ROWS = 4


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The most threads projection_table sums row chunks on: every CPU where
# BLAS is held to one thread (bergman.BLAS_ONE_THREAD), else one.  With
# two OpenBLAS threads two row threads made a product-2d report slower
# (0.43 -> 0.59 s), as the idle BLAS worker spin-waits on a CPU.
ROW_THREADS = _cpus() if BLAS_ONE_THREAD else 1


@dataclass(frozen=True)
class DomainSpec:
    """Quadrature domain: nodes and Lebesgue weights over a (poly)disc.

    The grid is geometry only; it serves every h.  Its nodes are
    ``polydisc_grid(radii, n_radial, n_angular)``: n_radial and n_angular
    state the polar structure that quadrature.polar_moments reads, n_radial
    as the count of radial nodes built (make_domain).  ``memo``
    keeps, as long as the grid lives, what its callers would otherwise
    recompute: phi on the nodes per weight (``phi``) and the weighted norm
    of each (weight, test function, h) that reproducing_error divides by.
    """

    radii: tuple[float, ...]
    n_radial: int
    n_angular: int
    nodes: np.ndarray      # (m, n) complex
    weights: np.ndarray    # (m,) positive
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def phi(self, w: Weight) -> np.ndarray:
        """The weight on the nodes, w.phi(nodes), computed once per weight."""
        key = ("phi", w)
        if key not in self.memo:
            phi = self.memo[key] = w.phi(self.nodes)
            phi.flags.writeable = False
        return self.memo[key]


def make_domain(radii, n_radial: int = 64, n_angular: int = 128) -> DomainSpec:
    """Tensor grid over the polydisc with these radii (a disc for one radius)."""
    if np.isscalar(radii):
        radii = (float(radii),)
    radii = tuple(float(r) for r in radii)
    if any(r <= 0 for r in radii):
        raise ConfigInvalid(f"domain radii must be positive, got {radii}")
    nodes, weights = polydisc_grid(radii, n_radial, n_angular)
    # the radial count built, which radial_nodes raises to at least 4
    built = radial_nodes(radii[0], n_radial)[0].size
    return DomainSpec(radii, built, n_angular, nodes, weights)


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
    kernels must share the weight and h, so they differ only in a.  With
    a = sum A[alpha, beta] x^alpha conj(y)^beta and y = r e^{i theta},
    T[i, t] = sum_beta (X_alpha(x_i) A)[i, beta] H_i[beta + t, t - beta],
    where H_i are the polar moments (quadrature.polar_moments) of row i's
    measure e^{(2/h)(Psi - phi)} w: the exponential factor and its moments
    are formed once per block of rows and read by every kernel.  Kernels
    whose realized symbols are equal (orders cut at the same k) get one
    table between them.  Each kernel stores ({t: column of T}, T) in its
    ``tables`` under ``table_key``.

    T is holomorphic in each x_j, so when the rows are many (torus_points)
    it is summed at the M^n points (R_j e^{2 pi i a_j / M})_j of a torus,
    R_j the largest |x_ij|, and read off the torus's discrete Fourier
    transform: b = DFT(T_torus) / M^n holds the Taylor coefficients
    c_k R^k, and T_rows = sum_k b_k prod_j (x_ij / R_j)^k_j, one variable at
    a time.  Two probes are summed directly too: the row nearest to the
    origin and the point (R_j e^{i pi / M})_j between the torus points.
    The torus is used only if its values are finite and both probes agree
    with their reconstruction to within TORUS_TOL of the probe's largest
    entry; otherwise the rows are summed directly.  A table that is not
    finite raises IllConditioned: h is too small for the kernel's range in
    double precision.
    """
    K0 = kernels[0]
    if any(K.w != K0.w or K.h != K0.h for K in kernels):
        raise ConfigInvalid("kernels sharing a projection table build need one weight and one h")
    n, rows = K0.n, xd.shape[0]
    monomials = _block_monomials(n, degree)
    yd = np.conj(d.nodes)
    # Points summed, one slice each: the rows, then the two probes and the
    # torus, so one set of factors serves them all.
    M = torus_points(n, rows)
    R = np.abs(xd).max(axis=0, initial=0.0)
    torus = M > 0 and np.all(R > 0)
    pts = xd
    if torus:
        ring = 2j * np.pi / M * np.arange(M)
        probes = np.stack([xd[np.abs(xd).max(axis=1).argmin()], R * np.exp(1j * np.pi / M)])
        grid = np.meshgrid(*(Rj * np.exp(ring) for Rj in R), indexing="ij")
        pts = np.concatenate([xd, probes, np.stack(grid, axis=-1).reshape(-1, n)])
    # Psi's node-side factor, once per grid: Psi = X @ P.  Row 0 of P
    # multiplies the constant monomial, so subtracting phi(y) there makes
    # the GEMM return Psi - phi(y), which stays bounded where the two terms
    # alone overflow and underflow at small h.
    X, P = K0.w.series.bilinear_factors(pts, yd)
    P[0] -= d.phi(K0.w)
    # Each symbol enters as its point-side coefficients C = X_alpha(pts) A
    # and the index of H[beta + t, t - beta] for its columns beta and the
    # table's columns t.
    symbols = list(dict.fromkeys(K.symbol.series for K in kernels))
    S = np.array(monomials)
    reads, top = [], 0
    for a in symbols:
        xmon, ymon, A = a.bilinear_table()
        B = np.array(ymon)
        top = max(top, int(B.max()))
        at = tuple(i for j in range(n) for i in (B[:, None, j] + S[None, :, j],
                                                  S[None, :, j] - B[:, None, j]))
        reads.append((_monomial_table(pts, xmon) @ A, (slice(None),) + at))
    moments = moment_reader(d.radii, d.n_radial, d.n_angular, top + degree, (-top, degree))
    # Each row thread has its own exponent buffer: one BLOCK_ELEMENTS
    # budget split between them serves every block.
    nodes = d.nodes.shape[0]
    threads = max(1, min(ROW_THREADS, -(-pts.shape[0] * nodes // BLOCK_ELEMENTS)))
    chunk = max(1, BLOCK_ELEMENTS // threads // nodes)
    buffers = np.empty((threads, min(chunk, pts.shape[0]), nodes), dtype=complex)

    def integrate(lo: int, hi: int) -> list[np.ndarray]:
        """Every symbol's table at the points pts[lo:hi], its row chunks
        taken in turn by up to ``threads`` threads, the caller's among them."""
        Ts = [np.empty((hi - lo, len(monomials)), dtype=complex) for _ in symbols]
        starts, take, errors = iter(range(lo, hi, chunk)), threading.Lock(), []

        def sum_chunk(E_buf: np.ndarray, start: int) -> None:
            stop = min(start + chunk, hi)
            E = E_buf[:stop - start]
            np.matmul(X[start:stop], P, out=E)
            # Keep this separate pass between the GEMM and exp; do not fold
            # 2/h into P.  exp called straight on an OpenBLAS complex GEMM
            # result measured 10-16x slower: upper AVX-512 register state
            # left by the GEMM kernel slows the complex exp until another
            # ufunc runs.
            E *= 2.0 / K0.h
            np.exp(E, out=E)
            E *= d.weights
            for sub in range(start, stop, MOMENT_ROWS):
                end = min(sub + MOMENT_ROWS, stop)
                H = moments(E[sub - start:end - start])
                for (C, at), T in zip(reads, Ts):
                    T[sub - lo:end - lo] = np.einsum("ib,ibt->it", C[sub:end], H[at])

        def work(E_buf: np.ndarray) -> None:
            # numpy's error state is per thread: each thread sets its own.
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    while not errors:
                        with take:
                            start = next(starts, None)
                        if start is None:
                            return
                        sum_chunk(E_buf, start)
            except BaseException as exc:
                errors.append(exc)

        team = []
        try:
            for E_buf in buffers[1:-(-(hi - lo) // chunk)]:
                worker = threading.Thread(target=work, args=(E_buf,))
                worker.start()
                team.append(worker)
            work(buffers[0])
        finally:
            for worker in team:
                worker.join()
        if errors:
            raise errors[0]
        return Ts

    with np.errstate(over="ignore", invalid="ignore"):
        Ts = None
        if torus:
            Ts = _from_torus(integrate(rows + 2, pts.shape[0]), integrate(rows, rows + 2),
                             xd / R, probes / R, M)
        if Ts is None:
            Ts = integrate(0, rows)
    if not all(np.isfinite(T).all() for T in Ts):
        raise IllConditioned(f"projection table at h = {K0.h} is not finite: "
                             "e^((2/h)(Psi - phi)) leaves the double range on this grid")
    cols = {t: col for col, t in enumerate(monomials)}
    for K in kernels:
        K.tables[table_key(d, xd)] = cols, Ts[symbols.index(K.symbol.series)]


def torus_points(n: int, rows: int) -> int:
    """Points per variable of the torus projection_table reads ``rows``
    rows in n variables off: the largest power of two M <= TORUS_POINTS
    whose M^n points are at most a quarter of the rows, or 0 (sum every
    row) if that M is below TORUS_LEAST."""
    M = TORUS_POINTS
    while M ** n > rows / 4:
        M //= 2
    return M if M >= TORUS_LEAST else 0


def _from_torus(sums, direct, xs, probes, M):
    """Tables at the rows ``xs`` (scaled by 1/R) from each symbol's sums on
    the torus of M points per variable, or None if a sum is not finite or
    misses a probe."""
    n = xs.shape[1]
    # The DFT over each torus axis, one product with the roots of unity the
    # polar moments read: importing numpy.fft and running one transform
    # raises a process's peak memory by 0.6-0.7 MB.
    dft = np.conj(angular_table(M, 0, M - 1))
    Ts = []
    for S, D in zip(sums, direct):
        if not np.isfinite(S).all():
            return None
        b = S.reshape((M,) * n + (-1,))
        for j in range(n):
            b = np.moveaxis(np.tensordot(dft, b, axes=(1, j)), 0, j)
        b /= M ** n
        miss = np.abs(_taylor_sum(b, probes, M) - D).max(axis=1)
        if not np.all(miss <= TORUS_TOL * np.abs(D).max(axis=1)):
            return None
        Ts.append(_taylor_sum(b, xs, M))
    return Ts


def _taylor_sum(b, xs, M):
    """sum_k b[k] prod_j xs[:, j]^k_j for b of shape (M,)*n + (columns,),
    contracting one variable at a time over a few rows at a time, so the
    partial sums hold at most TAYLOR_ELEMENTS elements."""
    powers = [(a,) for a in range(M)]
    step = max(1, TAYLOR_ELEMENTS * M // b.size)
    T = np.empty((xs.shape[0], b.shape[-1]), dtype=complex)
    for lo in range(0, xs.shape[0], step):
        x = xs[lo:lo + step]
        part = _monomial_table(x[:, :1], powers) @ b.reshape(M, -1)
        for j in range(1, xs.shape[1]):
            part = np.einsum("ia,iar->ir", _monomial_table(x[:, j:j + 1], powers),
                             part.reshape(x.shape[0], M, -1))
        T[lo:lo + step] = part
    return T


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
    terms = u.terms()
    key = table_key(dom, xd)
    stored = K.tables.get(key, ({}, None))[0]
    if not all(t in stored for t, _ in terms):
        projection_table([K], dom, xd, max((sum(t) for t, _ in terms), default=0))
    cols, T = K.tables[key]
    c = np.zeros(len(cols), dtype=complex)
    for t, coef in terms:
        c[cols[t]] = coef
    return (T @ c) * K.h ** (-K.n)


def weighted_norm(w: Weight, values: np.ndarray, dom: DomainSpec, h: float) -> float:
    """L2 norm against exp(-2 phi / h) over the domain's quadrature.

    The values are damped by exp(-phi / h) and scaled by their peak before
    squaring, so neither the square nor the damping overflows at small h.
    """
    mag = np.abs(values * np.exp(-dom.phi(w) / h))
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
    # ||u|| depends on (w, u, h) alone, not on the kernel's amplitude
    key = ("norm", K.w, u, K.h)
    if key not in outer.memo:
        outer.memo[key] = weighted_norm(K.w, u.eval_grid(outer.nodes), outer, K.h)
    return num / outer.memo[key]


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
