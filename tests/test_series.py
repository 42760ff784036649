import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergman
from bergman.errors import ConfigInvalid, VariableMismatch
from bergman.series import MAX_DEGREE, TruncatedSeries, bidegree, monomial_key


def close(a, b, tol=1e-12):
    assert abs(a - b) < tol, (a, b)


def series_strategy(nvars, maxdeg, max_terms=6):
    def build(entries):
        triples = [(tuple(mi), re, im) for mi, re, im in entries
                   if sum(mi) <= maxdeg]
        return TruncatedSeries.from_triples(triples, nvars, maxdeg)
    mi = st.tuples(*([st.integers(0, maxdeg)] * nvars))
    coeff = st.floats(-2, 2, allow_nan=False, width=32)
    return st.lists(st.tuples(mi, coeff, coeff), max_size=max_terms).map(build)


def rand_points(nvars, m=5, seed=0, scale=0.4):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((m, nvars)) + 1j * rng.standard_normal((m, nvars)))


def test_constructors_and_round_trip():
    s = TruncatedSeries.from_triples([((1, 2), 0.5, -1.0), ((0, 0), 2.0, 0.0)], 2, 4)
    assert s.coeff((1, 2)) == 0.5 - 1.0j
    assert s.constant_term == 2.0
    back = TruncatedSeries.from_triples(s.to_triples(), 2, 4)
    assert (s - back).max_abs() == 0.0
    v = TruncatedSeries.variable(1, 3, 5)
    assert v.coeff((0, 1, 0)) == 1.0
    assert TruncatedSeries.zero(2, 3).is_zero()
    assert TruncatedSeries.constant(3.0, 1, 2).constant_term == 3.0


def test_truncation_drops_high_degree():
    s = TruncatedSeries.from_triples([((3,), 1.0, 0.0), ((1,), 2.0, 0.0)], 1, 5)
    t = s.truncate(2)
    assert t.coeff((3,)) == 0.0
    assert t.coeff((1,)) == 2.0
    assert t.maxdeg == 2
    # a jet known to degree 5 cannot be promoted: a higher bound keeps 5
    assert s.truncate(9).maxdeg == 5


def test_arithmetic_against_pointwise_values():
    f = TruncatedSeries.from_triples([((2, 0), 1.0, 0.0), ((0, 1), -0.5, 0.5)], 2, 6)
    g = TruncatedSeries.from_triples([((1, 1), 0.25, 0.0), ((0, 0), 1.0, 0.0)], 2, 6)
    pts = rand_points(2)
    fg = (f * g).eval_grid(pts)
    # degrees 2+2 <= 6, so the truncated product is the exact product
    assert np.allclose(fg, f.eval_grid(pts) * g.eval_grid(pts), atol=1e-13)
    assert np.allclose((f + g).eval_grid(pts), f.eval_grid(pts) + g.eval_grid(pts))
    assert np.allclose((f - g).eval_grid(pts), f.eval_grid(pts) - g.eval_grid(pts))
    assert np.allclose((2.5 * f).eval_grid(pts), 2.5 * f.eval_grid(pts))


@settings(max_examples=60, deadline=None)
@given(series_strategy(2, 4), series_strategy(2, 4), series_strategy(2, 4))
def test_ring_axioms(a, b, c):
    assert ((a + b) - (b + a)).max_abs() == 0.0
    assert (((a + b) + c) - (a + (b + c))).max_abs() < 1e-12
    assert ((a * b) - (b * a)).max_abs() < 1e-12
    assert (((a * b) * c) - (a * (b * c))).max_abs() < 1e-9
    assert ((a * (b + c)) - (a * b + a * c)).max_abs() < 1e-9


@settings(max_examples=40, deadline=None)
@given(series_strategy(1, 5))
def test_truncated_product_matches_degree_filter(a):
    # multiplying by x then truncating equals shifting the kept exponents
    x = TruncatedSeries.variable(0, 1, 5)
    shifted = (a * x).to_triples()
    for mi, re, im in shifted:
        assert mi[0] >= 1
        close(complex(re, im), a.coeff((mi[0] - 1,)), 1e-13)


def test_geometric_inverse():
    # (1 - x)^-1 = sum x^k
    one_minus_x = TruncatedSeries.from_triples([((0,), 1.0, 0.0), ((1,), -1.0, 0.0)], 1, 8)
    inv = one_minus_x.invert()
    for k in range(9):
        close(inv.coeff((k,)), 1.0)
    prod = one_minus_x * inv
    one = TruncatedSeries.constant(1.0, 1, 8)
    assert (prod - one).max_abs() < 1e-13


@settings(max_examples=40, deadline=None)
@given(series_strategy(2, 4))
def test_invert_is_two_sided(a):
    shifted = a + TruncatedSeries.constant(1.5, 2, 4)   # keep away from 0
    inv = shifted.invert()
    one = TruncatedSeries.constant(1.0, 2, 4)
    assert ((shifted * inv) - one).max_abs() < 1e-9
    assert ((inv * shifted) - one).max_abs() < 1e-9


def test_invert_requires_nonzero_constant():
    x = TruncatedSeries.variable(0, 1, 3)
    with pytest.raises(Exception):
        x.invert()


def test_substitute_composes_with_eval():
    f = TruncatedSeries.from_triples(
        [((2, 0), 1.0, 0.0), ((1, 1), -1.0, 0.0), ((0, 0), 0.5, 0.0)], 2, 8)
    g0 = TruncatedSeries.from_triples([((1, 0), 1.0, 0.0), ((0, 2), 0.25, 0.0)], 2, 8)
    g1 = TruncatedSeries.from_triples([((0, 1), -0.5, 0.5)], 2, 8)
    comp = f.substitute([g0, g1])
    pts = rand_points(2, scale=0.3)
    inner = np.stack([g0.eval_grid(pts), g1.eval_grid(pts)], axis=1)
    want = f.eval_grid(inner)
    # |g(z)| < 1 and total degrees 2*2 + 2 <= 8: composition is exact
    assert np.allclose(comp.eval_grid(pts), want, atol=1e-12)


def test_equality_is_by_value():
    def build(maxdeg=4, c=1.0):
        return TruncatedSeries.from_triples([((1, 2), c, 0.0), ((0, 0), 0.5, 0.0)], 2, maxdeg)
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build(maxdeg=5) and a != build(c=2.0)
    assert a != TruncatedSeries.from_triples([((1, 2, 0), 1.0, 0.0)], 3, 4)
    assert a != 1.0


def test_diff_product_rule():
    f = TruncatedSeries.from_triples([((2,), 1.0, 0.0), ((0,), 1.0, 0.0)], 1, 6)
    g = TruncatedSeries.from_triples([((3,), 0.5, 0.0), ((1,), -1.0, 0.0)], 1, 6)
    lhs = (f * g).diff(0)
    rhs = f.diff(0) * g + f * g.diff(0)
    assert (lhs - rhs).max_abs() < 1e-13


@pytest.mark.parametrize("triples, k", [
    pytest.param([((2, 1), 1.0, -0.5), ((0, 3), 0.25, 0.0), ((1, 0), -1.0, 0.0)], 1,
                 id="k1"),
    pytest.param([((1, 0, 1, 0), 0.5, 0.0), ((0, 2, 1, 1), 0.25, -0.75),
                  ((2, 1, 0, 0), -1.0, 0.5), ((0, 0, 0, 3), 0.3, 0.0)], 2, id="k2"),
])
def test_bilinear_factors_match_eval_grid(triples, k):
    f = TruncatedSeries.from_triples(triples, 2 * k, 5)
    u = rand_points(k, m=7, seed=1)
    v = rand_points(k, m=4, seed=2)
    X, B = f.bilinear_factors(u, v)
    grid = X @ B
    assert np.array_equal(f.eval_bilinear(u, v), grid)
    pts = np.concatenate([np.repeat(u, len(v), axis=0), np.tile(v, (len(u), 1))], axis=1)
    assert np.allclose(grid.ravel(), f.eval_grid(pts), atol=1e-13)


def test_eval_grid_is_eval_powers_over_repeated_products():
    s = TruncatedSeries.from_triples([((3, 0), 0.5, 1.0), ((1, 2), -2.0, 0.0),
                                      ((0, 0), 1.5, 0.0)], 2, 4)
    pts = rand_points(2, m=7, seed=3)
    pw = []
    for z, kmax in zip(pts.T, s.exponent_bounds()):
        rows = [np.ones(len(z), dtype=complex)]
        for _ in range(kmax):
            rows.append(rows[-1] * z)
        pw.append(rows)
    assert s.exponent_bounds() == [3, 2]
    assert np.array_equal(s.eval_grid(pts), s.eval_powers(pw))
    assert np.array_equal(TruncatedSeries.zero(2, 4).eval_grid(pts), np.zeros(7))


def test_bilinear_factors_rejects_wrong_arity():
    f = TruncatedSeries.from_triples([((1, 0, 0), 1.0, 0.0)], 3, 3)
    with pytest.raises(VariableMismatch):
        f.bilinear_factors(np.array([0.1]), np.array([0.2]))


def test_ring_mismatch_raises():
    a = TruncatedSeries.constant(1.0, 2, 3)
    b = TruncatedSeries.constant(1.0, 3, 3)
    with pytest.raises(VariableMismatch):
        _ = a + b
    with pytest.raises(VariableMismatch):
        _ = a * b


def tuple_key_product(f, g):
    """The product as a loop over exponent tuples: the sparser operand
    outermost, a tuple built and hashed per pair, exact zeros dropped."""
    deg = min(f.maxdeg, g.maxdeg)
    a, b = dict(f.terms()), dict(g.terms())
    if len(a) > len(b):
        a, b = b, a
    out = {}
    bitems = [(mi, sum(mi), c) for mi, c in b.items() if sum(mi) <= deg]
    for mia, ca in a.items():
        da = sum(mia)
        if da > deg:
            continue
        for mib, db, cb in bitems:
            if db > deg - da:
                continue
            mi = tuple(p + q for p, q in zip(mia, mib))
            s = out.get(mi, 0.0) + ca * cb
            if s == 0.0:
                out.pop(mi, None)
            else:
                out[mi] = s
    return out


@st.composite
def product_operands(draw):
    # few small exponents and coefficients ±1, ±2, ±1j make many pairs land
    # on one monomial and many partial sums cancel exactly
    nvars = draw(st.integers(1, 4))
    coeff = st.sampled_from([1.0, -1.0, 2.0, -2.0, 1j, -1j, 0.5 - 0.25j])

    def operand():
        maxdeg = draw(st.integers(0, 7))
        mi = st.tuples(*([st.integers(0, 3)] * nvars))
        terms = draw(st.lists(st.tuples(mi, coeff), max_size=8))
        return TruncatedSeries(nvars, maxdeg, dict(terms))
    return operand(), operand()


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_packed_product_is_the_tuple_key_product(ops):
    for f, g in (ops, ops[::-1]):
        want = tuple_key_product(f, g)
        got = f * g
        assert got.maxdeg == min(f.maxdeg, g.maxdeg)
        assert dict(got.terms()) == want
        assert [mi for mi, _ in got.terms()] == list(want)


def test_packed_product_keeps_the_order_of_a_cancelled_sum():
    # the xy sum reads 1, then 0 (dropped), then 5: it is re-inserted last
    x, y = (TruncatedSeries.variable(i, 2, 4) for i in range(2))
    f = x + y + 1.0
    g = y - x + 5.0 * x * y
    prod = f * g
    assert dict(prod.terms()) == tuple_key_product(f, g)
    assert [mi for mi, _ in prod.terms()] == list(tuple_key_product(f, g))
    assert prod.terms()[-1][0] == (1, 1) and prod.coeff((1, 1)) == 5.0


@pytest.mark.parametrize("deg", [1, 2, 6, 9, 10, 254, 255])
def test_packed_product_does_not_carry_at_the_degree_bound(deg):
    # x_i^a x_j^b with a + b = deg puts the largest exponent, deg, in one
    # field (i = j) or fills two fields up to deg: none may spill into the
    # next, nor into the degree field
    for i in range(4):
        for j in range(4):
            for a in range(deg + 1):
                ea = tuple(a if k == i else 0 for k in range(4))
                eb = tuple(deg - a if k == j else 0 for k in range(4))
                f = TruncatedSeries(4, deg, {ea: 2.0})
                g = TruncatedSeries(4, min(deg + 3, MAX_DEGREE), {eb: -1.5j})
                want = tuple(p + q for p, q in zip(ea, eb))
                assert (f * g).terms() == [(want, -3j)]


def test_maxdeg_bounded_by_the_key():
    assert TruncatedSeries.constant(1.0, 2, MAX_DEGREE).maxdeg == 255
    for bad in (-1, 256):
        with pytest.raises(ConfigInvalid, match="maxdeg"):
            TruncatedSeries(2, bad)


@st.composite
def top_range_series(draw):
    # 1-4 variables, exponent sums up to MAX_DEGREE, each monomial's total
    # degree split into its exponents at sorted cut points
    nvars = draw(st.integers(1, 4))
    maxdeg = draw(st.integers(0, MAX_DEGREE))

    def monomial():
        d = draw(st.integers(0, maxdeg))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=nvars - 1,
                                    max_size=nvars - 1)))
        return tuple(q - p for p, q in zip([0] + cuts, cuts + [d]))
    coeff = st.sampled_from([1.0, -2.0, 0.5j, 3.0 - 1.0j])
    terms = {monomial(): draw(coeff) for _ in range(draw(st.integers(0, 6)))}
    return TruncatedSeries(nvars, maxdeg, terms), terms


@settings(max_examples=300, deadline=None)
@given(top_range_series())
def test_tuple_edges_round_trip_at_the_top_of_the_key_range(case):
    f, terms = case
    assert f.terms() == list(terms.items())
    assert all(f.coeff(mi) == c for mi, c in terms.items())
    triples = f.to_triples()
    assert triples == [[list(mi), c.real, c.imag] for mi, c in sorted(terms.items())]
    assert TruncatedSeries.from_triples(triples, f.nvars, f.maxdeg) == f
    for i in range(f.nvars):
        # d/dx_i x^e = e_i x^(e - unit_i), one degree lower
        want = {mi[:i] + (mi[i] - 1,) + mi[i + 1:]: c * mi[i]
                for mi, c in terms.items() if mi[i]}
        d = f.diff(i)
        assert d.maxdeg == max(f.maxdeg - 1, 0)
        assert d.terms() == list(want.items())
    if f.nvars % 2 == 0:
        # a block key's bidegree: the first half's exponent sum, then the rest's
        n = f.nvars // 2
        assert [bidegree(monomial_key(mi), n) for mi in terms] == [
            (sum(mi[:n]), sum(mi[n:])) for mi in terms]


def test_only_series_decodes_monomial_keys():
    # series lays out a key's fields: no other module names DIGIT or shifts
    # an int, but the Sobol' engine's bit arithmetic on its direction
    # numbers, and that module reads nothing from series
    for path in sorted(pathlib.Path(bergman.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                 for node in nodes}
        assert "DIGIT" not in names, path.name
        shifts = [node for node in nodes
                  if isinstance(getattr(node, "op", None), (ast.LShift, ast.RShift))]
        if path.name == "quadrature.py":
            assert shifts and not any(isinstance(node, ast.ImportFrom) and node.module == "series"
                                      for node in nodes)
        else:
            assert not shifts, (path.name, [node.lineno for node in shifts])
