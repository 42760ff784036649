import dataclasses

import numpy as np
import pytest

from bergman.errors import BadContour, DegenerateHessian
from bergman.phase import (build_phase, inversion_margin, lift_blocks, phase_on_contour,
                           theta_jacobian_pairs, theta_pairs, theta_ratio, verify_contour)
from bergman.series import TruncatedSeries, bidegree, exponents, monomial_key
from bergman.weight import Weight, validate_weight

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]


def make_weight(triples, n=1, maxdeg=12, trust=1.0):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    return validate_weight(s, trust)


def make_phase(triples, n=1, maxdeg=12, trust=1.0):
    return build_phase(make_weight(triples, n, maxdeg, trust))


def test_gaussian_quadratic_data():
    pd = make_phase(GAUSS)
    assert np.allclose(pd.b0, [[0.5]])
    assert abs(pd.hess_det - 0.25) < 1e-14
    assert not pd.remainder


def test_four_point_phase_telescopes():
    # phase vanishes identically when only one of (u, v) moves
    pd = make_phase(QUARTIC, maxdeg=10)
    assert pd.remainder
    for key, s in pd.remainder.items():
        a, b = bidegree(key, 1)
        assert a >= 1 and b >= 1 and a + b >= 3, (a, b)
        assert not s.is_zero()
    assert not pd.quad_B[0][0].is_zero()
    for (a, b), _ in pd.phi0.terms():
        assert a >= 1 and b >= 1, (a, b)


# Re g for the holomorphic cubic g(x) = sum_a c_a x^a, on top of a cubic weight
HOLO_CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.02, 0.0), ((1, 2), 0.02, 0.0)] + [
    t for a, c in enumerate([0.3 + 0.1j, -0.2 + 0.05j, 0.1 - 0.07j], start=1)
    for t in (((a, 0), c.real / 2, c.imag / 2), ((0, a), c.real / 2, -c.imag / 2))]
PRODUCT = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
           ((2, 0, 2, 0), 0.1, 0.0), ((0, 2, 0, 2), 0.05, 0.0)]


def phase_by_definition(w):
    """Psi(x, yt) - Psi(x, xt) - Psi(y, yt) + Psi(y, xt) in (y, xt, x, yt),
    then x = y + u and yt = xt + v, in the (y, xt, u, v) ring."""
    n, psi = w.n, w.series
    var = [TruncatedSeries.variable(i, 4 * n, psi.maxdeg) for i in range(4 * n)]

    def place(first, second):
        return psi.substitute(var[first * n:(first + 1) * n] + var[second * n:(second + 1) * n])

    phi4 = place(2, 3) - place(2, 1) - place(0, 3) + place(0, 1)
    return phi4.substitute(var[:2 * n] + [var[j] + var[2 * n + j] for j in range(2 * n)])


def reassemble(blocks, n, maxdeg):
    """The blocks {key of u^alpha v^beta: slow series} as one series in (y, xt, u, v)."""
    out = {}
    for key, s in blocks.items():
        ab = exponents(key, 2 * n)
        assert s.maxdeg == maxdeg - sum(ab), ab
        for mi, c in s.terms():
            out[mi + ab] = c
    return TruncatedSeries(4 * n, maxdeg, out)


@pytest.mark.parametrize("n", [1, 2])
def test_lift_blocks_matches_substitute(n):
    # random dense complex f: the blocks, put back together, are f(y + u, xt + v)
    rng = np.random.default_rng(n)
    maxdeg = 6
    f = TruncatedSeries(2 * n, maxdeg, {
        mi: complex(*rng.standard_normal(2))
        for mi in np.ndindex(*(maxdeg + 1,) * (2 * n)) if sum(mi) <= maxdeg})
    var = [TruncatedSeries.variable(i, 4 * n, maxdeg) for i in range(4 * n)]
    want = f.substitute([var[j] + var[2 * n + j] for j in range(2 * n)])
    blocks = lift_blocks(f)
    assert 0 in blocks and monomial_key((maxdeg,) + (0,) * (2 * n - 1)) in blocks
    got = reassemble(blocks, n, maxdeg)
    assert {mi for mi, _ in got.terms()} == {mi for mi, _ in want.terms()}
    assert (got - want).max_abs() <= 1e-14 * want.max_abs()


@pytest.mark.parametrize("triples,n,maxdeg", [
    (QUARTIC, 1, 10), (HOLO_CUBIC, 1, 12), (PRODUCT, 2, 8)],
    ids=["quartic", "holomorphic-cubic", "product-2d"])
def test_phase_matches_its_definition(triples, n, maxdeg):
    # phi = u^T B v + remainder, block by block
    w = make_weight(triples, n, maxdeg)
    pd = build_phase(w)
    want = phase_by_definition(w)
    quad = {monomial_key(tuple(int(i in (j, n + k)) for i in range(2 * n))): pd.quad_B[j][k]
            for j in range(n) for k in range(n)}
    assert not quad.keys() & pd.remainder.keys()
    got = reassemble({**quad, **pd.remainder}, n, pd.maxdeg)
    assert got.maxdeg == want.maxdeg
    assert (got - want).max_abs() < 1e-14
    # over the origin, the blocks' constant terms are phi0
    at_origin = {exponents(key, 2 * n): s.constant_term
                 for key, s in {**quad, **pd.remainder}.items() if s.constant_term != 0.0}
    assert dict(pd.phi0.terms()) == at_origin


def test_quadratic_block_series():
    # Psi = xy/2 + 0.1 x^2 y^2 gives B(y, xt) = 1/2 + 0.4 y xt
    pd = make_phase(QUARTIC, maxdeg=10)
    b = pd.quad_B[0][0]
    assert abs(b.coeff((0, 0)) - 0.5) < 1e-13
    assert abs(b.coeff((1, 1)) - 0.4) < 1e-13
    got = b.eval_grid(np.array([[0.2, 0.2]], dtype=complex))[0]
    assert abs(got - (0.5 + 0.4 * 0.04)) < 1e-12


def test_degenerate_hessian_rejected():
    # mixed block diag(1, 0) at the origin: singular, whatever its determinant
    s = TruncatedSeries.from_triples(
        [((1, 0, 1, 0), 1.0, 0.0), ((0, 2, 0, 2), 0.1, 0.0)], 4, 8)
    w = Weight(n=2, series=s, trust_radius=1.0)
    assert np.array_equal(w.levi, [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateHessian, match="singular"):
        build_phase(w)


def test_tiny_levi_form_builds_a_phase():
    # a Levi eigenvalue of 1e-6 passes validate_weight, so the phase must build
    pd = make_phase([((1, 1), 1e-6, 0.0)], maxdeg=8)
    assert abs(pd.hess_det - 1e-12) <= 1e-12 * 1e-12


def test_hess_det_is_square_of_det_b_n2():
    # product weight |x1|^2 + 2|x2|^2: det B = 2, hessian determinant 4
    triples = [((1, 0, 1, 0), 1.0, 0.0), ((0, 1, 0, 1), 2.0, 0.0)]
    pd = make_phase(triples, n=2, maxdeg=8)
    assert np.allclose(pd.b0, [[1.0, 0.0], [0.0, 2.0]])
    assert abs(pd.hess_det - 4.0) < 1e-12


def test_good_contour_margin_gaussian():
    # -Re(phi) on v = -conj(B u) equals |u|^2 lambda^2/(1+lambda^2)... times
    # (1 + lambda^2); the normalized margin is lambda^2/(1+lambda^2) = 0.2
    pd = make_phase(GAUSS, trust=1.2)
    margin = verify_contour(pd, 0.36, seed=0)
    assert abs(margin - 0.2) < 1e-10


def test_phase_on_contour_values():
    # Gaussian: phi restricted to the good contour is -0.25 |u|^2 exactly
    pd = make_phase(GAUSS)
    u = np.array([[0.3 + 0.1j], [0.2j]])
    vals = phase_on_contour(pd, u)
    want = -0.25 * (np.abs(u[:, 0]) ** 2)
    assert np.allclose(vals, want, atol=1e-13)


def test_inversion_contour_margin_gaussian():
    # ratio (phi(x) - phi(y) + Im((x-y) theta)) / |x-y|^2 is exactly lambda
    w = make_weight(GAUSS, trust=1.2)
    margin = inversion_margin(w, 0.36, seed=0)
    assert abs(margin - 0.5) < 1e-9


def test_theta_gaussian_closed_form():
    w = make_weight(GAUSS)
    th = theta_pairs(w, np.array([0.3 + 0.0j]), np.array([0.2 + 0.0j]))
    # theta = (2/i) * (ybar/2) independent of x for a quadratic weight
    assert abs(th[0, 0] - (-0.2j)) < 1e-13
    jac = theta_jacobian_pairs(w, np.array([0.3 + 0.0j]), np.array([0.2 + 0.0j]))
    assert abs(jac[0] - (-1j)) < 1e-13


# A non-separable n = 2 weight: the Levi form couples x1 and x2, and a
# complex degree-4 term mixes the blocks.
COUPLED = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
           ((1, 0, 0, 1), 0.1, 0.0), ((0, 1, 1, 0), 0.1, 0.0),
           ((1, 1, 1, 1), 0.05, 0.0),
           ((2, 0, 1, 1), 0.02, 0.01), ((1, 1, 2, 0), 0.02, -0.01)]


def dtheta_dconj_y(w, x, y, eps=1e-5):
    """Central differences d(theta_j)/d(conj y_k) = (1/2)(d_a + i d_b) theta_j
    for y_k = a + ib, shape (m, n, n)."""
    cols = []
    for k in range(w.n):
        step = np.zeros(w.n, dtype=complex)
        step[k] = eps
        d_a = theta_pairs(w, x, y + step) - theta_pairs(w, x, y - step)
        d_b = theta_pairs(w, x, y + 1j * step) - theta_pairs(w, x, y - 1j * step)
        cols.append(0.5 * (d_a + 1j * d_b) / (2.0 * eps))
    return np.stack(cols, axis=2)


@pytest.mark.parametrize("triples, n", [
    pytest.param(QUARTIC, 1, id="n1-quartic"),
    pytest.param(COUPLED, 2, id="n2-coupled"),
])
def test_theta_jacobian_matches_central_differences(triples, n):
    # the quartic's third derivatives make the (1/2) hess term of theta
    # depend on conj y, which the Gaussian cannot show
    w = make_weight(triples, n=n)
    rng = np.random.default_rng(3)
    x = 0.3 * (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)))
    y = 0.3 * (rng.standard_normal((12, n)) + 1j * rng.standard_normal((12, n)))
    want = np.linalg.det(dtheta_dconj_y(w, x, y))
    got = theta_jacobian_pairs(w, x, y)
    assert got.shape == (12,)
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_theta_quartic_frozen():
    # d(phi)/dy at y=0.2: 0.1 + 0.2*0.2*0.04 = 0.1016, theta = -2i * that
    w = make_weight(QUARTIC)
    th = theta_pairs(w, np.array([0.2 + 0.0j]), np.array([0.2 + 0.0j]))
    assert abs(th[0, 0] - (-0.2032j)) < 1e-12


def test_theta_broadcasts_one_to_many():
    w = make_weight(QUARTIC)
    ys = np.array([[0.1 + 0.0j], [0.2 + 0.1j], [0.0 - 0.3j]])
    th = theta_pairs(w, np.array([0.25 + 0.0j]), ys)
    assert th.shape == (3, 1)
    one = theta_pairs(w, np.array([0.25 + 0.0j]), ys[1])
    assert np.allclose(th[1], one[0])


def test_theta_ratio_drops_pairs_below_the_coincidence_floor():
    # as y -> x the theta ratio tends to the Levi form at x, here
    # 0.5 + 0.4|x|^2 + 0.3 Re(x^2) = 0.546; at separation 3e-9, below the
    # floor 1e-6 x 0.3, cancellation scatters it over 0.3..2.0, so that pair
    # is dropped, and the pairs above the floor agree with the limit
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0),
                     ((3, 1), 0.05, 0.0), ((1, 3), 0.05, 0.0)])
    x = np.array([[0.25 + 0.15j]])
    levi = 0.5 + 0.4 * abs(x[0, 0]) ** 2 + 0.3 * (x[0, 0] ** 2).real
    dirs = np.exp(2j * np.pi * np.arange(8) / 8)[:, None]
    seps = (6e-7, 1e-6, 1e-5, 1e-4)
    y = np.concatenate([x + 3e-9 * dirs] + [x + s * dirs for s in seps])
    ratio = theta_ratio(w, x, y, 0.3)
    assert ratio.shape == (len(seps) * len(dirs),)
    assert np.abs(ratio - levi).max() < 1e-3


def test_bad_contour_raises():
    pd = make_phase(GAUSS, trust=1.2)
    bad = dataclasses.replace(pd, b0=-pd.b0)
    with pytest.raises(BadContour):
        verify_contour(bad, 0.36, seed=0)


def test_margin_shrinks_with_radius_on_concave_perturbation():
    # a negative quartic term erodes the inversion margin as the sampling
    # radius grows; the positive-quartic weight only improves it
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 2), -0.1, 0.0)], trust=1.0)
    margins = [inversion_margin(w, r, seed=0)
               for r in (0.1, 0.3, 0.6, 0.9)]
    assert all(np.diff(margins) < 0)
    assert margins[-1] > 0

    w2 = make_weight(QUARTIC, trust=1.0)
    m_small = inversion_margin(w2, 0.1, seed=0)
    m_big = inversion_margin(w2, 0.9, seed=0)
    assert m_big >= m_small > 0
