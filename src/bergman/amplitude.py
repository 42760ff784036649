"""Formal stationary phase on good contours and the amplitude equation.

The fast integral h^{-n} * int exp(2 phi / h) u dx dyt over a good contour
has a complete formal expansion.  Writing the phase as u^T B v plus a
remainder R of fast order >= 3, the expansion is generated by the pairing
operator

    exp(PAIRING_H * h * <d_u, B^{-T} d_v>)

applied to u(y+u, xt+v) * exp((2/h) R), evaluated at u = v = 0.  Retained
diagrams with p pairings and q remainder insertions carry h^(p-q); full
contraction forces 2p >= 3q, so the order h^j is a finite sum whose deepest
diagram has p = 3j pairings.  A pairing takes two derivatives, so each
series here is known to fewer degrees than its inputs, and says so.

The two normalization constants are not free: they are calibrated once
against the exact Gaussian contour integral (weight |x|^2/2, for which the
order-zero value is pi in one variable) and then frozen.  The 2D quadrature
oracle in the oracle module guards both numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDegree, VariableMismatch
from .phase import PhaseData, lift, to_ring, to_slow
from .quadrature import sobol_ball
from .series import TruncatedSeries

# Coefficient of h <d_u, B^{-T} d_v> in the pairing exponent, and the
# order-zero factor c0 = LEADING_NUM^n / det B.  Calibrated on the Gaussian
# closed form; do not change one without the other.
PAIRING_H = -0.5
LEADING_NUM = math.pi / 2.0

GROWTH_SAMPLES = 512


def _series_det(mat: list[list[TruncatedSeries]]) -> TruncatedSeries:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = None
    for k in range(n):
        minor = [[mat[i][j] for j in range(n) if j != k] for i in range(1, n)]
        term = mat[0][k] * _series_det(minor)
        if k % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _series_matrix_inverse(mat: list[list[TruncatedSeries]],
                           det_inv: TruncatedSeries) -> list[list[TruncatedSeries]]:
    """Adjugate times det_inv, the inverse of det mat; fine for the small n used here."""
    n = len(mat)
    if n == 1:
        return [[det_inv]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[mat[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = _series_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[i][j] = cof * det_inv
    return out


@dataclass
class Amplitude:
    """Solution of the amplitude equation up to the requested order."""

    n: int
    order: int
    coeffs: list                  # TruncatedSeries in (x, yt), each at its own honest maxdeg
    c0: TruncatedSeries           # leading stationary-phase factor in (y, xt)
    growth_C: float | None = None
    growth_profile: list = field(default_factory=list)


@dataclass(frozen=True)
class RealizedSymbol:
    series: TruncatedSeries
    cutoff: int


class ExpansionTermOps:
    """The operators T_j of the formal stationary-phase expansion.

    T_0 restricts to the critical point; for j >= 1, T_j collects every
    diagram with p = j + q pairings against q remainder insertions.  Inputs
    are series in the outgoing variables (x, yt); outputs are series in the
    slow variables (y, xt), two degrees shallower per pairing.
    """

    def __init__(self, pd: PhaseData):
        self.n = n = pd.n
        self.slow_deg = pd.slow_deg

        det_inv = _series_det(pd.quad_B).invert()
        self.c0 = (LEADING_NUM ** n) * det_inv
        # B^{-1} entries in the (y, xt, u, v) ring, for the pairings.
        self.binv_big = [[to_ring(e, n) for e in row]
                         for row in _series_matrix_inverse(pd.quad_B, det_inv)]

        self._remainder = pd.remainder
        self._rpow: list[TruncatedSeries] = [
            TruncatedSeries.constant(1.0, 4 * n, pd.maxdeg)]

    # -- helpers -------------------------------------------------------------

    def _remainder_power(self, q: int) -> TruncatedSeries:
        while len(self._rpow) <= q:
            self._rpow.append(self._rpow[-1] * self._remainder)
        return self._rpow[q]

    def _u_deg(self, mi) -> int:
        return sum(mi[2 * self.n:3 * self.n])

    def _v_deg(self, mi) -> int:
        return sum(mi[3 * self.n:])

    def _pair_once(self, s: TruncatedSeries) -> TruncatedSeries:
        n = self.n
        acc = None
        for j in range(n):
            for k in range(n):
                d = s.diff(2 * n + k).diff(3 * n + j)
                if d.is_zero():
                    continue
                term = self.binv_big[j][k] * d
                acc = term if acc is None else acc + term
        if acc is None:
            return TruncatedSeries.zero(4 * n, max(s.maxdeg - 2, 0))
        return acc

    # -- the operators ---------------------------------------------------------

    def apply(self, j: int, f: TruncatedSeries) -> TruncatedSeries:
        """T_j f to degree min(f.maxdeg, slow_deg) - 2 pmax: pmax = 3j, or j without remainder."""
        if j == 0:
            return f.truncate(self.slow_deg)
        fc = lift(f.truncate(self.slow_deg), self.n)
        pmax = j if self._remainder.is_zero() else 3 * j
        deg = fc.maxdeg - 2 * pmax
        if deg < 0:
            raise InsufficientDegree(f"T_{j} needs degree {2 * pmax}, its input has {fc.maxdeg}")
        total = TruncatedSeries.zero(2 * self.n, deg)
        for q in range(0, 2 * j + 1):
            p = j + q
            rq = self._remainder_power(q)
            if q > 0 and rq.is_zero():
                break
            # Only fully contractible terms survive: u- and v-degree both p.
            # Pairing removes 2p degrees: the product is needed to deg + 2p.
            fa = fc.truncate(deg + 2 * p).filter(
                lambda mi: self._u_deg(mi) <= p and self._v_deg(mi) <= p)
            rb = rq.filter(lambda mi: self._u_deg(mi) <= p and self._v_deg(mi) <= p)
            if fa.is_zero() or rb.is_zero():
                continue
            g = (fa * rb).filter(
                lambda mi: self._u_deg(mi) == p and self._v_deg(mi) == p)
            if g.is_zero():
                continue
            for _ in range(p):
                g = self._pair_once(g)
            coef = (2.0 ** q) * (PAIRING_H ** p) / (
                math.factorial(q) * math.factorial(p))
            # Fully contracted: every term of g has u- and v-degree 0.
            total = total + to_slow(g, self.n) * coef
        return total


def formal_expansion(pd: PhaseData, terms: list[TruncatedSeries],
                     hmax: int) -> list[TruncatedSeries]:
    """Expansion of the fast contour integral applied to a symbol.

    ``terms[k]`` is the symbol's h^k coefficient.  Returns [e_0, ..., e_hmax]
    with e_m = c0(y, xt) * sum_{j+k=m} (T_j terms[k])(y, xt), the h^m
    coefficient of the expansion, each at the degree its diagrams resolve.
    """
    if not terms:
        raise InsufficientDegree("need at least the h^0 term")
    if any(t.nvars != 2 * pd.n for t in terms):
        raise VariableMismatch(
            f"symbol terms must have {2 * pd.n} variables, as the phase expects")
    ops = ExpansionTermOps(pd)
    out = []
    for m in range(hmax + 1):
        acc = TruncatedSeries.zero(2 * pd.n, ops.slow_deg)
        for k in range(0, min(m, len(terms) - 1) + 1):
            acc = acc + ops.apply(m - k, terms[k])
        out.append(ops.c0 * acc)
    return out


def solve_amplitude(pd: PhaseData, order: int) -> Amplitude:
    """Solve (expansion of a) = 1 order by order.

    The order-zero equation fixes a0 as the reciprocal of c0; each higher
    order cancels the lower-order diagrams:  a_m = -sum_{j=1..m} T_j a_{m-j}.
    a_m is known to degree maxdeg - 2 - 6m (maxdeg - 2 - 2m without a
    remainder), so order N needs maxdeg >= 6N + 2.
    """
    ops = ExpansionTermOps(pd)
    coeffs = [ops.c0.invert()]
    for m in range(1, order + 1):
        acc = TruncatedSeries.zero(2 * pd.n, ops.slow_deg)
        for j in range(1, m + 1):
            acc = acc - ops.apply(j, coeffs[m - j])
        coeffs.append(acc)
    return Amplitude(n=pd.n, order=order, coeffs=coeffs, c0=ops.c0)


def estimate_growth(amp: Amplitude, region_radius: float, seed: int = 0) -> float:
    """Fit sup|a_k| <= C^(k+1) k^k at GROWTH_SAMPLES Sobol points of the region.

    Returns twice the fitted constant (safety margin) and stores the
    normalized sequence (sup|a_k| / k^k)^(1/(k+1)) on the amplitude for
    band diagnostics.
    """
    pts = sobol_ball(2 * amp.n, region_radius, GROWTH_SAMPLES, seed=seed)
    profile = []
    for k, ak in enumerate(amp.coeffs):
        sup = float(np.abs(ak.eval_grid(pts)).max()) if not ak.is_zero() else 0.0
        kk = 1.0 if k == 0 else float(k) ** k
        profile.append((sup / kk) ** (1.0 / (k + 1)))
    c_fit = max(profile) if profile else 0.0
    amp.growth_C = 2.0 * c_fit
    amp.growth_profile = profile
    return amp.growth_C


def realize(amp: Amplitude, h: float) -> RealizedSymbol:
    """Sum a_k h^k for k <= min(order, floor(1 /(C e h))).

    Falls back to the full order when no growth constant has been estimated
    (the k = 0 term is always retained).  Each a_k adds the degrees it
    resolves; the ring's ``+`` would cut the sum to the last a_k's degree.
    """
    if amp.growth_C and amp.growth_C > 0.0:
        cutoff = int(math.floor(1.0 / (amp.growth_C * math.e * h)))
        cutoff = min(amp.order, max(cutoff, 0))
    else:
        cutoff = amp.order
    total: dict = {}
    for k in range(cutoff + 1):
        for mi, c in amp.coeffs[k].coeffs.items():
            total[mi] = total.get(mi, 0.0) + c * h ** k
    series = TruncatedSeries(2 * amp.n, amp.coeffs[0].maxdeg, total)
    return RealizedSymbol(series=series, cutoff=cutoff)
