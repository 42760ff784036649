import itertools
import math
import operator

import numpy as np
import pytest

import bergman.amplitude
from bergman.amplitude import (PAIRING_H, ExpansionTermOps, _block_product, _phase_ops, _rows,
                               estimate_growth, formal_expansion, realize,
                               solve_amplitude)
from bergman.errors import InsufficientDegree, VariableMismatch
from bergman.series import TruncatedSeries, bidegree, exponents, monomial_key
from bergman.weight import validate_weight
from bergman.phase import build_phase, lift_blocks

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]
CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.05, 0.0), ((1, 2), 0.05, 0.0)]


def make_phase(triples, n=1, maxdeg=16, trust=1.0):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    return build_phase(validate_weight(s, trust))


def test_gaussian_amplitude_is_constant():
    amp = solve_amplitude(make_phase(GAUSS), 6)
    assert abs(amp.coeffs[0].constant_term - 1.0 / np.pi) < 1e-14
    assert amp.coeffs[0].max_abs() - abs(amp.coeffs[0].constant_term) < 1e-14
    for k in range(1, 7):
        assert amp.coeffs[k].max_abs() < 1e-13


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 0.37, 2.9])
def test_quadratic_family_constant(lam):
    amp = solve_amplitude(make_phase([((1, 1), lam, 0.0)]), 3)
    assert abs(amp.coeffs[0].constant_term - 2.0 * lam / np.pi) < 1e-12
    for k in range(1, 4):
        assert amp.coeffs[k].max_abs() < 1e-12


def test_quartic_corrections_match_moment_oracle():
    # radial moments of exp(-2 phi / h) with phi = |x|^2/2 + eps |x|^4 give
    # pi*a(0, 0; h) = 1 / sum_k (-2 eps h)^k (2k)!/k!, whose h^k coefficients
    # at eps = 0.1 are the rationals below
    amp = solve_amplitude(make_phase(QUARTIC, maxdeg=38), 6)
    want = [1.0, 2 / 5, -8 / 25, 16 / 25, -1184 / 625, 22592 / 3125,
            -522368 / 15625]
    for k, target in enumerate(want):
        got = np.pi * amp.coeffs[k].constant_term
        assert abs(got - target) < 1e-10, (k, got, target)


@pytest.mark.parametrize("triples, order, maxdeg, degrees", [
    pytest.param(QUARTIC, 4, 26, [24, 18, 12, 6, 0], id="quartic"),
    pytest.param(CUBIC, 3, 20, [18, 12, 6, 0], id="cubic"),
])
def test_coefficients_keep_only_resolved_degrees(triples, order, maxdeg, degrees):
    # a_k loses 6 degrees per order; every coefficient it keeps must match a
    # solve 12 degrees deeper
    amp = solve_amplitude(make_phase(triples, maxdeg=maxdeg), order)
    deep = solve_amplitude(make_phase(triples, maxdeg=maxdeg + 12), order)
    assert [a.maxdeg for a in amp.coeffs] == degrees
    for k, (a, ref) in enumerate(zip(amp.coeffs, deep.coeffs)):
        assert (a - ref).max_abs() <= 1e-12 * a.max_abs(), k


def test_amplitude_solves_unit_feedback():
    pd = make_phase(QUARTIC, maxdeg=26)
    amp = solve_amplitude(pd, 4)
    terms = formal_expansion(pd, amp.coeffs, 4)
    c0 = terms[0]
    one = TruncatedSeries.constant(1.0, 2, c0.maxdeg)
    assert (c0 - one).max_abs() < 1e-12
    # j = 4 accumulates roundoff from thousand-term pairing sums; 1e-10 is
    # still ~1e-14 relative to the largest intermediate coefficients
    for j in range(1, 5):
        assert terms[j].max_abs() < 1e-10


def test_shared_operators_change_no_expansion():
    # solve_amplitude and formal_expansion share the phase's one set of
    # operators and its T_j f memo; each expansion equals, bit for bit, the
    # one on a freshly built phase
    w = validate_weight(TruncatedSeries.from_triples(QUARTIC, 2, 26), 1.0)
    pd = build_phase(w)
    amp = solve_amplitude(pd, 4)
    u = TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 24)
    for terms in (amp.coeffs, [u], amp.coeffs):
        assert formal_expansion(pd, terms, 4) == formal_expansion(build_phase(w), terms, 4)


def dense_weight_triples(seed=0):
    """|x|^2/2 plus small Hermitian c_ab x^a conj(x)^b, 1 <= a, b, 3 <= a + b <= 8."""
    rng = np.random.default_rng(seed)
    triples = [((1, 1), 0.5, 0.0)]
    for a in range(1, 8):
        for b in range(a, 9 - a):
            if a + b < 3:
                continue
            re, im = 0.02 * rng.uniform(-1.0, 1.0, 2)
            if a == b:
                triples.append(((a, a), re, 0.0))
            else:
                triples += [((a, b), re, im), ((b, a), re, -im)]
    return triples


@pytest.mark.parametrize("triples, order, maxdeg", [
    pytest.param(dense_weight_triples(), 3, 20, id="dense"),
    pytest.param(QUARTIC, 4, 26, id="quartic"),
])
def test_remainder_powers_hold_only_the_blocks_the_terms_read(monkeypatch, triples, order,
                                                              maxdeg):
    # T_j (j <= slow_deg // 6) reads R^q at bidegree <= j + q, so R^q keeps
    # no block beyond q + slow_deg // 6, and the solve equals, bit for bit,
    # one whose powers hold every block
    pd = make_phase(triples, maxdeg=maxdeg)
    amp = solve_amplitude(pd, order)
    rpow = _phase_ops(pd)._rpow
    assert len(rpow) == 2 * order + 1
    for q, power in enumerate(rpow):
        assert all(max(bidegree(key, 1)) <= q + pd.slow_deg // 6 for _, _, key, _ in power), q

    # the same solve with R^q's products uncapped
    monkeypatch.setattr(bergman.amplitude, "_block_product",
                        lambda f, g, maxdeg, p=None, cap=None: _block_product(f, g, maxdeg, p))
    full_pd = make_phase(triples, maxdeg=maxdeg)
    full_coeffs = solve_amplitude(full_pd, order).coeffs
    assert sum(map(len, _phase_ops(full_pd)._rpow)) > sum(map(len, rpow))
    assert full_coeffs == amp.coeffs


def test_pluriharmonic_gauge_invariance():
    # adding Re(g) for holomorphic cubic g leaves every coefficient unchanged
    rng = np.random.default_rng(7)
    base = solve_amplitude(make_phase(QUARTIC, maxdeg=20), 3)
    for _ in range(3):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gauge = list(QUARTIC)
        for a, ca in enumerate(c, start=1):
            gauge.append(((a, 0), ca.real / 2, ca.imag / 2))
            gauge.append(((0, a), ca.real / 2, -ca.imag / 2))
        shifted = solve_amplitude(make_phase(gauge, maxdeg=20), 3)
        for k in range(4):
            diff = base.coeffs[k] - shifted.coeffs[k]
            assert diff.max_abs() < 1e-12


def test_budget_errors():
    pd = make_phase(QUARTIC, maxdeg=20)
    with pytest.raises(InsufficientDegree):
        solve_amplitude(pd, 4)        # needs maxdeg >= 6*4 + 2
    u = TruncatedSeries.constant(1.0, 2, 4)
    with pytest.raises(InsufficientDegree):
        formal_expansion(pd, [u], 2)  # T_1 alone needs 6 degrees
    with pytest.raises(VariableMismatch):
        formal_expansion(pd, [TruncatedSeries.constant(1.0, 4, 18)], 1)  # n = 1 wants 2


def test_expansion_balance_prunes_to_diagonal_orders():
    # for a radial weight the odd h-coefficients of the constant symbol are
    # even functions; the h^j coefficient has only balanced monomials
    pd = make_phase(QUARTIC, maxdeg=20)
    u = TruncatedSeries.constant(1.0, 2, 18)
    terms = formal_expansion(pd, [u], 3)
    for j in range(4):
        for mi, c in terms[j].terms():
            if abs(c) > 1e-14:
                assert mi[0] == mi[1], (j, mi)


def test_growth_estimate_and_realization():
    amp = solve_amplitude(make_phase(QUARTIC, maxdeg=26), 4)
    C = estimate_growth(amp, 0.35, seed=0)
    assert C > 0
    assert len(amp.growth_profile) == 5
    assert amp.growth_C == C
    r = realize(amp, h=0.1)
    assert r.cutoff <= 4
    # realized symbol at the origin is the partial sum of the h-series
    vals = [amp.coeffs[k].constant_term for k in range(r.cutoff + 1)]
    want = sum(v * 0.1 ** k for k, v in enumerate(vals))
    assert abs(r.series.constant_term - want) < 1e-13


def test_growth_cutoff_shrinks_with_h():
    amp = solve_amplitude(make_phase(QUARTIC, maxdeg=26), 4)
    estimate_growth(amp, 0.35, seed=0)
    cuts = [realize(amp, h).cutoff for h in (0.02, 0.1, 0.5, 2.0)]
    assert all(np.diff(cuts) <= 0)


def test_amplitude_deterministic():
    a = solve_amplitude(make_phase(QUARTIC, maxdeg=20), 3)
    b = solve_amplitude(make_phase(QUARTIC, maxdeg=20), 3)
    for k in range(4):
        assert (a.coeffs[k] - b.coeffs[k]).max_abs() == 0.0


# A non-separable n = 2 weight: the Levi form couples x1 and x2, so B^{-1}
# has nonzero off-diagonal entries.
NONSEPARABLE = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
                ((1, 1, 1, 1), 0.1, 0.0), ((2, 0, 2, 0), 0.05, 0.0),
                ((2, 0, 0, 2), 0.03, 0.0), ((0, 2, 2, 0), 0.03, 0.0),
                ((1, 0, 0, 1), 0.1, 0.0), ((0, 1, 1, 0), 0.1, 0.0)]


@pytest.mark.parametrize("triples, n, maxdeg", [
    pytest.param(dense_weight_triples(), 1, 62, id="dense"),
    pytest.param(NONSEPARABLE, 2, 26, id="nonseparable"),
])
def test_lift_blocks_binomials_match_math_comb(triples, n, maxdeg):
    # the Pascal table's binomial products are those of math.comb per
    # (term, block): every block and coefficient bit for bit, in order
    f = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    want = {}
    for mi, c in f.terms():
        for k in itertools.product(*(range(e + 1) for e in mi)):
            kk = monomial_key(k)
            slow = want.setdefault(kk, (maxdeg - sum(k), {}))[1]
            slow[monomial_key(mi) - kk] = c * math.prod(map(math.comb, mi, k))
    got = lift_blocks(f)
    assert list(got) == list(want)
    for kk, (deg, slow) in want.items():
        assert got[kk].maxdeg == deg
        assert list(got[kk].coeffs.items()) == list(slow.items())


def test_nonseparable_coefficients_match_their_closed_forms():
    # with g = (d_xj d_xtk Phi) on the diagonal (x, conj x):
    # a_0 = (2/pi)^2 det g and a_1 = (a_0 / 4) tr(g^{-1} L), where
    # L_jk = d_j d_kbar log det g = (D D_jk - D_j D_k) / D^2 for D = det g
    n = 2
    s = TruncatedSeries.from_triples(NONSEPARABLE, 2 * n, 20)
    w = validate_weight(s, 1.0)
    amp = solve_amplitude(build_phase(w), 1)
    x = 0.08 * np.exp(1j * np.array([[0.3, 1.1], [2.0, -0.7], [-1.4, 2.6], [0.9, -2.2]]))
    pts = w.displacements(x)
    hess = [[s.diff(j).diff(n + k) for k in range(n)] for j in range(n)]
    det = hess[0][0] * hess[1][1] - hess[0][1] * hess[1][0]
    g = np.stack([np.stack([h.eval_grid(pts) for h in row], axis=1) for row in hess], axis=1)
    d = det.eval_grid(pts)
    L = np.stack([np.stack([
        (d * det.diff(j).diff(n + k).eval_grid(pts)
         - det.diff(j).eval_grid(pts) * det.diff(n + k).eval_grid(pts)) / d ** 2
        for k in range(n)], axis=1) for j in range(n)], axis=1)
    a0 = (2.0 / np.pi) ** 2 * np.linalg.det(g)
    a1 = 0.25 * a0 * np.trace(np.linalg.solve(g, L), axis1=1, axis2=2)
    for k, want in enumerate([a0, a1]):
        got = amp.coeffs[k].eval_grid(pts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(got).max(), k


@pytest.mark.parametrize("triples, n, maxdeg, order", [
    pytest.param(QUARTIC, 1, 26, 4, id="quartic"),
    pytest.param(NONSEPARABLE, 2, 8, 1, id="nonseparable"),
])
def test_one_inversion_per_phase(monkeypatch, triples, n, maxdeg, order):
    # det B is inverted once, for c0 and B^{-1}; a_0 = 1/c0 is read off det B,
    # the classical leading term (2/pi)^n det(Levi form) at the origin
    w = validate_weight(TruncatedSeries.from_triples(triples, 2 * n, maxdeg), 1.0)
    pd = build_phase(w)
    calls = []
    invert = TruncatedSeries.invert
    monkeypatch.setattr(TruncatedSeries, "invert",
                        lambda self: calls.append(self) or invert(self))
    amp = solve_amplitude(pd, order)
    assert len(calls) == 1
    want = (2.0 / np.pi) ** n * np.linalg.det(w.levi)
    assert abs(amp.coeffs[0].constant_term - want) <= 1e-15


def test_each_symbol_is_lifted_once(monkeypatch):
    # order 4 reads T_1..T_4 a_0, T_1..T_3 a_1, T_1, T_2 a_2 and T_1 a_3: ten
    # terms from four lifts; formal_expansion lifts each of its terms once
    pd = make_phase(QUARTIC, maxdeg=26)
    lifted = []
    lift = bergman.amplitude.lift_blocks
    monkeypatch.setattr(bergman.amplitude, "lift_blocks",
                        lambda f: lifted.append(f) or lift(f))
    amp = solve_amplitude(pd, 4)
    assert len(lifted) == 4
    assert lifted == [a.truncate(pd.slow_deg) for a in amp.coeffs[:4]]
    lifted.clear()
    terms = [TruncatedSeries.constant(c, 2, 24) for c in (1.0, 0.5, 0.25)]
    e = formal_expansion(pd, terms, 3)
    assert len(lifted) == 3
    lifted.clear()
    # a second call on the phase reads the memo and lifts nothing
    assert formal_expansion(pd, terms, 3) == e
    assert solve_amplitude(pd, 4).coeffs == amp.coeffs
    assert lifted == []


def chains_term(ops, j, f, fc):
    """T_j f as 2j + 1 separate contraction chains, one per remainder power
    q, each paired j + q times: the engine's sum before its Horner form."""
    pmax = 3 * j if ops._remainder else j
    deg = f.maxdeg - 2 * pmax
    total = TruncatedSeries.zero(2 * ops.n, deg)
    for q in range(0, 2 * j + 1):
        p = j + q
        rq = ops._remainder_power(q)
        if not rq:
            break
        g = _block_product(fc, rq, deg + 2 * p, p)
        for _ in range(p):
            g = ops._pair_once(g)
        if g:
            coef = (2.0 ** q) * (PAIRING_H ** p) / (math.factorial(q) * math.factorial(p))
            total = total + g[0] * coef
    return total


NONRADIAL = QUARTIC + [((3, 1), 0.025, 0.0), ((1, 3), 0.025, 0.0)]
ENGINE_WEIGHTS = [
    pytest.param(QUARTIC, 1, 26, id="perturbed-quartic"),
    pytest.param(NONRADIAL, 1, 26, id="nonradial-quartic"),
    pytest.param(dense_weight_triples(3), 1, 26, id="dense"),
    pytest.param(NONSEPARABLE, 2, 26, id="nonseparable"),
    pytest.param(GAUSS, 1, 12, id="no-remainder"),
]


@pytest.mark.parametrize("triples, n, maxdeg", ENGINE_WEIGHTS)
def test_one_pairing_chain_matches_a_chain_per_remainder_power(monkeypatch, triples, n, maxdeg):
    # T_j f pairs one running block dict 3j times (j without a remainder)
    # and agrees with the 2j + 1 chains of 2j(2j + 1) pairings to rounding
    pd = make_phase(triples, n=n, maxdeg=maxdeg)
    ops = ExpansionTermOps(pd)
    s = TruncatedSeries.from_triples(triples, 2 * n, pd.slow_deg)
    f = (s + s * s).truncate(pd.slow_deg)
    fc = _rows(lift_blocks(f), n)
    pairings = []
    pair = ExpansionTermOps._pair_once
    monkeypatch.setattr(ExpansionTermOps, "_pair_once",
                        lambda self, g: pairings.append(g) or pair(self, g))
    for j in range(1, 5):
        pairings.clear()
        got = ops._term(j, f, fc)
        assert len(pairings) == (3 * j if pd.remainder else j)
        pairings.clear()
        want = chains_term(ops, j, f, fc)
        assert len(pairings) == (2 * j * (2 * j + 1) if pd.remainder else j)
        assert got.maxdeg == want.maxdeg
        assert (got - want).max_abs() <= 1e-13 * want.max_abs(), j


def tuple_block_product(f, g, maxdeg, p=None, cap=None):
    """The engine's block product on blocks keyed by (alpha, beta) exponent
    tuples, as it was before blocks were keyed by monomial keys."""
    by_bidegree: dict = {}
    for key, t in g.items():
        by_bidegree.setdefault((sum(key[0]), sum(key[1])), []).append((key, t))
    out: dict = {}
    for (a, b), s in f.items():
        pairs = g.items() if p is None else by_bidegree.get((p - sum(a), p - sum(b)), ())
        for (c, d), t in pairs:
            key = (tuple(map(operator.add, a, c)), tuple(map(operator.add, b, d)))
            deg = maxdeg - sum(key[0]) - sum(key[1])
            if deg >= 0 and (cap is None or max(map(sum, key)) <= cap):
                prod = s.truncate(deg) * t
                out[key] = out[key] + prod if key in out else prod
    return out


def tuple_pair_once(binv, n, blocks):
    """The engine's pairing on (alpha, beta)-keyed blocks, as it was."""
    out: dict = {}
    for (a, b), s in blocks.items():
        for j, k in itertools.product(range(n), repeat=2):
            if a[k] and b[j]:
                key = (a[:k] + (a[k] - 1,) + a[k + 1:], b[:j] + (b[j] - 1,) + b[j + 1:])
                term = binv[j][k] * s * (a[k] * b[j])
                out[key] = out[key] + term if key in out else term
    return out


def tuple_blocks(blocks, n):
    """Blocks keyed by (alpha, beta) exponent tuples, in the dict's order."""
    return {(e[:n], e[n:]): s for e, s in
            ((exponents(key, 2 * n), s) for key, s in blocks.items())}


def tuple_key_engine(pd, binv, f, jmax):
    """T_1..T_jmax f and the remainder powers they read, by the Horner sweep
    on tuple-keyed blocks: the engine before its blocks took monomial keys."""
    n, slow_deg = pd.n, pd.slow_deg
    remainder = tuple_blocks(pd.remainder, n)
    rpow = [{((0,) * n, (0,) * n): TruncatedSeries.constant(1.0, 2 * n, pd.maxdeg)}]
    fc = tuple_blocks(lift_blocks(f), n)
    terms = []
    for j in range(1, jmax + 1):
        pmax = 3 * j if remainder else j
        deg = f.maxdeg - 2 * pmax
        g: dict = {}
        for q in range(2 * j if remainder else 0, -1, -1):
            while len(rpow) <= q:
                rpow.append(tuple_block_product(rpow[-1], remainder, pd.maxdeg,
                                                cap=len(rpow) + slow_deg // 6))
            p = j + q
            coef = (2.0 ** q) * (PAIRING_H ** p) / (math.factorial(q) * math.factorial(p))
            for key, s in tuple_block_product(fc, rpow[q], deg + 2 * p, p).items():
                g[key] = g[key] + s * coef if key in g else s * coef
            for _ in range(j if q == 0 else 1):
                g = tuple_pair_once(binv, n, g)
        terms.append(g.get(((0,) * n, (0,) * n), TruncatedSeries.zero(2 * n, deg)))
    return terms, rpow


@pytest.mark.parametrize("triples, n, maxdeg", ENGINE_WEIGHTS)
def test_int_block_keys_match_the_tuple_key_engine(triples, n, maxdeg):
    # blocks keyed by one monomial key give T_1..T_4 and every R^q bit for
    # bit as the (alpha, beta)-tuple engine, in the same order of terms
    pd = make_phase(triples, n=n, maxdeg=maxdeg)
    ops = ExpansionTermOps(pd)
    s = TruncatedSeries.from_triples(triples, 2 * n, pd.slow_deg)
    f = (s + s * s).truncate(pd.slow_deg)
    want, want_rpow = tuple_key_engine(pd, ops.binv, f, 4)
    fc = _rows(lift_blocks(f), n)
    for j, ref in enumerate(want, start=1):
        got = ops._term(j, f, fc)
        assert got.maxdeg == ref.maxdeg and got.coeffs == ref.coeffs, j
        assert got.terms() == ref.terms(), j
    # each R^q row: its key, its bidegree and its block, in the same order
    assert len(ops._rpow) == len(want_rpow)
    for q, ref in enumerate(want_rpow):
        rows = ops._rpow[q]
        assert [(exponents(key, 2 * n), a, b) for a, b, key, _ in rows] == [
            (alpha + beta, sum(alpha), sum(beta)) for alpha, beta in ref], q
        assert all(t.maxdeg == r.maxdeg and t.terms() == r.terms()
                   for (_, _, _, t), r in zip(rows, ref.values())), q
