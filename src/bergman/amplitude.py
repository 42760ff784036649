"""Formal stationary phase on good contours and the amplitude equation.

The fast integral h^{-n} * int exp(2 phi / h) u dx dyt over a good contour
has a complete formal expansion.  Writing the phase as u^T B v plus a
remainder R of fast order >= 3, the expansion is generated by the pairing
operator

    exp(PAIRING_H * h * <d_u, B^{-T} d_v>)

applied to u(y+u, xt+v) * exp((2/h) R), evaluated at u = v = 0.  Retained
diagrams with p pairings and q remainder insertions carry h^(p-q); full
contraction forces 2p >= 3q, so the order h^j is a finite sum whose deepest
diagram has p = 3j pairings.  Only the u^alpha v^beta parts with
|alpha| = |beta| = p survive p pairings, so the engine holds the lifted
symbol and R^q as blocks of slow series in (y, xt), keyed by the monomial
key of u^alpha v^beta (see ``phase``), and forms only those (p, p) blocks
G_q of their product.  Each block's bidegree is read off its key once, when
the lift, the remainder or R^q is built, into a row (|alpha|, |beta|, key,
series); a block product adds keys, and a pairing subtracts the key of
u_k v_j.  Pairing with B^{-1} is linear, so the h^j order is one nested
sweep: one running block dict starts as the deepest q's weighted G_q and,
for each shallower q, is paired once and takes that q's weighted G_q; the
j pairings every diagram ends in then run once (3j pairings per T_j, not
2j(2j + 1)).  A pairing takes two derivatives, so each series here is
known to fewer degrees than its inputs, and says so.

Each phase has one set of operators, kept in its memo: det B^{-1} (c0 and
B^{-1}; a_0 is det B scaled), the remainder powers and each T_j f are built
once, so every solve_amplitude and formal_expansion on that phase shares them.
A symbol is lifted once for every T_j of it a caller reads (precompute), and
the lift is dropped when those are done.

The two normalization constants are not free: they are calibrated once
against the exact Gaussian contour integral (weight |x|^2/2, for which the
order-zero value is pi in one variable) and then frozen.  The 2D quadrature
oracle in the oracle module guards both numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDegree, VariableMismatch
from .phase import PhaseData, lift_blocks
from .quadrature import sobol_ball
from .series import TruncatedSeries, bidegree, exponents, monomial_key

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
        term = -term if k % 2 else term
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
            out[i][j] = (-cof if (i + j) % 2 else cof) * det_inv
    return out


def _rows(blocks: dict, n: int) -> list:
    """Each block as (|alpha|, |beta|, key, series), in the dict's order."""
    return [(*bidegree(key, n), key, s) for key, s in blocks.items()]


def _block_product(f: list, g, maxdeg: int, p: int | None = None,
                   cap: int | None = None) -> dict:
    """The blocks of f * g from their rows (``_rows``), each to degree
    maxdeg - |alpha| - |beta|; with p, only those of bidegree (p, p), g then
    given as its rows grouped by bidegree; with cap, those of bidegree
    <= (cap, cap)."""
    out: dict = {}
    for a, b, ka, s in f:
        for c, d, kc, t in (g if p is None else g.get((p - a, p - b), ())):
            deg = maxdeg - a - b - c - d
            if deg >= 0 and (cap is None or max(a + c, b + d) <= cap):
                key = ka + kc
                prod = s.truncate(deg) * t
                out[key] = out[key] + prod if key in out else prod
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

        det = _series_det(pd.quad_B)
        det_inv = det.invert()
        self.a0 = (LEADING_NUM ** -n) * det
        self.c0 = (LEADING_NUM ** n) * det_inv
        self.binv = _series_matrix_inverse(pd.quad_B, det_inv)

        self._maxdeg = pd.maxdeg
        self._remainder = _rows(pd.remainder, n)
        # R^q's rows, and the same rows grouped by bidegree
        self._rpow: list[list] = [[(0, 0, 0, TruncatedSeries.constant(1.0, 2 * n, pd.maxdeg))]]
        self._rgroups: list[dict] = [{(0, 0): self._rpow[0]}]
        # (j, k, key of u_k v_j) for each entry Binv_jk of a pairing
        self._units = [(j, k, monomial_key(tuple(int(i in (k, n + j)) for i in range(2 * n))))
                       for j, k in itertools.product(range(n), repeat=2)]
        self._applied: dict = {}     # (j, f) -> T_j f

    # -- helpers -------------------------------------------------------------

    def _remainder_power(self, q: int) -> dict:
        """R^q's rows grouped by bidegree."""
        # T_j (j <= slow_deg // 6) reads R^q at bidegree <= j + q, and R's
        # blocks have |alpha|, |beta| >= 1, so a block beyond that feeds none
        while len(self._rpow) <= q:
            rows = _rows(_block_product(self._rpow[-1], self._remainder, self._maxdeg,
                                        cap=len(self._rpow) + self.slow_deg // 6), self.n)
            self._rpow.append(rows)
            self._rgroups.append({})
            for row in rows:
                self._rgroups[-1].setdefault(row[:2], []).append(row)
        return self._rgroups[q]

    def _pair_once(self, blocks: dict) -> dict:
        """u^a v^b -> a_k b_j Binv_jk u^(a - e_k) v^(b - e_j), summed over j, k."""
        out: dict = {}
        for key, s in blocks.items():
            e = exponents(key, 2 * self.n)
            for j, k, unit in self._units:
                if e[k] and e[self.n + j]:
                    term = self.binv[j][k] * s * (e[k] * e[self.n + j])
                    low = key - unit
                    out[low] = out[low] + term if low in out else term
        return out

    # -- the operators ---------------------------------------------------------

    def apply(self, j: int, f: TruncatedSeries) -> TruncatedSeries:
        """T_j f to degree min(f.maxdeg, slow_deg) - 2 pmax: pmax = 3j, or j without remainder.

        Each (j, f) is computed once; series compare and hash by value.
        """
        if (j, f) not in self._applied:
            self.precompute(f, (j,))
        return self._applied[j, f]

    def precompute(self, f: TruncatedSeries, js) -> None:
        """Compute T_j f for each j in js not yet known, all from one lift of f;
        apply then reads them."""
        todo = [j for j in js if (j, f) not in self._applied]
        if todo:
            slow = f.truncate(self.slow_deg)
            lift = _rows(lift_blocks(slow), self.n) if any(todo) else None
            for j in todo:
                self._applied[j, f] = self._term(j, slow, lift)

    def _term(self, j: int, f: TruncatedSeries, fc: list) -> TruncatedSeries:
        """T_j f for f already cut to slow_deg, with fc its lift's rows (unused by T_0)."""
        if j == 0:
            return f
        pmax = 3 * j if self._remainder else j
        deg = f.maxdeg - 2 * pmax
        if deg < 0:
            raise InsufficientDegree(f"T_{j} needs degree {2 * pmax}, its input has {f.maxdeg}")
        # Pairing is linear, so sum_q c_q P^(j+q) G_q is one Horner chain,
        # P^j (c_0 G_0 + P (c_1 G_1 + P (...))), swept from the deepest q.
        # A (p, p) block, p <= pmax, reads no lift row beyond (pmax, pmax).
        fc = [row for row in fc if max(row[0], row[1]) <= pmax]
        g: dict = {}
        for q in range(2 * j if self._remainder else 0, -1, -1):
            p = j + q
            coef = (2.0 ** q) * (PAIRING_H ** p) / (math.factorial(q) * math.factorial(p))
            # Only fully contractible terms survive: u- and v-degree both p,
            # each block to the degree deg that p pairings leave.
            for key, s in _block_product(fc, self._remainder_power(q), deg + 2 * p, p).items():
                g[key] = g[key] + s * coef if key in g else s * coef
            for _ in range(j if q == 0 else 1):
                g = self._pair_once(g)
        return g.get(0, TruncatedSeries.zero(2 * self.n, deg))


def _phase_ops(pd: PhaseData) -> ExpansionTermOps:
    """The phase's one ExpansionTermOps, built on first use and kept in its memo."""
    if "ops" not in pd.memo:
        pd.memo["ops"] = ExpansionTermOps(pd)
    return pd.memo["ops"]


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
    ops = _phase_ops(pd)
    for k, t in enumerate(terms[:hmax + 1]):
        ops.precompute(t, range(hmax - k + 1))
    out = []
    for m in range(hmax + 1):
        acc = TruncatedSeries.zero(2 * pd.n, ops.slow_deg)
        for k in range(0, min(m, len(terms) - 1) + 1):
            acc = acc + ops.apply(m - k, terms[k])
        out.append(ops.c0 * acc)
    return out


def solve_amplitude(pd: PhaseData, order: int) -> Amplitude:
    """Solve (expansion of a) = 1 order by order.

    The order-zero equation fixes a0 = 1/c0 = det B / LEADING_NUM^n; each higher
    order cancels the lower-order diagrams:  a_m = -sum_{j=1..m} T_j a_{m-j}.
    a_m is known to degree maxdeg - 2 - 6m (maxdeg - 2 - 2m without a
    remainder), so order N needs maxdeg >= 6N + 2.
    """
    ops = _phase_ops(pd)
    coeffs = [ops.a0]
    for m in range(1, order + 1):
        # a_{m-1} is new: every T_j of it the solve reads, from one lift
        ops.precompute(coeffs[m - 1], range(1, order - m + 2))
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
        cutoff = min(amp.order, max(int(math.floor(1.0 / (amp.growth_C * math.e * h))), 0))
    else:
        cutoff = amp.order
    total: dict = {}
    for k in range(cutoff + 1):
        for mi, c in amp.coeffs[k].terms():
            total[mi] = total.get(mi, 0.0) + c * h ** k
    series = TruncatedSeries(2 * amp.n, amp.coeffs[0].maxdeg, total)
    return RealizedSymbol(series=series, cutoff=cutoff)
