import numpy as np
import pytest

from bergman.errors import BadContour, DegenerateHessian
from bergman.phase import (GoodContour, build_good_contour, build_phase,
                           eval_b, inversion_margin, phase_on_contour,
                           theta_jacobian_pairs, theta_pairs, verify_contour)
from bergman.series import TruncatedSeries
from bergman.weight import validate_weight

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]


def make_weight(triples, n=1, maxdeg=12, trust=1.0):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    return validate_weight(s, [0j] * n, trust)


def make_phase(triples, n=1, maxdeg=12, trust=1.0):
    return build_phase(make_weight(triples, n, maxdeg, trust))


def test_gaussian_quadratic_data():
    pd = make_phase(GAUSS)
    assert np.allclose(pd.b0, [[0.5]])
    assert abs(pd.hess_det - 0.25) < 1e-14
    assert pd.remainder.is_zero()


def test_four_point_phase_telescopes():
    # phase vanishes identically when only one of (u, v) moves
    pd = make_phase(QUARTIC, maxdeg=10)
    for mi, c in pd.phi_uv.coeffs.items():
        if abs(c) == 0.0:
            continue
        u_deg = sum(mi[2:3])
        v_deg = sum(mi[3:4])
        assert u_deg >= 1 and v_deg >= 1, mi


def test_quadratic_block_series():
    # Psi = xy/2 + 0.1 x^2 y^2 gives B(y, xt) = 1/2 + 0.4 y xt
    pd = make_phase(QUARTIC, maxdeg=10)
    b = pd.quad_B[0][0]
    assert abs(b.coeff((0, 0)) - 0.5) < 1e-13
    assert abs(b.coeff((1, 1)) - 0.4) < 1e-13
    got = eval_b(pd, np.array([0.2, 0.2], dtype=complex))
    assert abs(got[0, 0] - (0.5 + 0.4 * 0.04)) < 1e-12


def test_degenerate_hessian_rejected():
    # B(y, xt) = 1/2 + 0.4 y xt vanishes at y = 1.25, xt = -1
    pd = make_phase(QUARTIC, maxdeg=10)
    assert abs(eval_b(pd, np.array([1.25, -1.0], dtype=complex))[0, 0]) < 1e-14
    with pytest.raises(DegenerateHessian):
        build_good_contour(pd, np.array([1.25, -1.0], dtype=complex))


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
    margin = verify_contour(pd, build_good_contour(pd), 0.36, n_samples=4000, seed=0)
    assert abs(margin - 0.2) < 1e-10


def test_phase_on_contour_values():
    # Gaussian: phi restricted to the good contour is -0.25 |u|^2 exactly
    pd = make_phase(GAUSS)
    c = build_good_contour(pd)
    u = np.array([[0.3 + 0.1j], [0.2j]])
    vals = phase_on_contour(pd, c, u)
    want = -0.25 * (np.abs(u[:, 0]) ** 2)
    assert np.allclose(vals, want, atol=1e-13)


def test_inversion_contour_margin_gaussian():
    # ratio (phi(x) - phi(y) + Im((x-y) theta)) / |x-y|^2 is exactly lambda
    w = make_weight(GAUSS, trust=1.2)
    margin = inversion_margin(w, w.base, 0.36, n_samples=4000, seed=0)
    assert abs(margin - 0.5) < 1e-9


def test_theta_gaussian_closed_form():
    w = make_weight(GAUSS)
    th = theta_pairs(w, np.array([0.3 + 0.0j]), np.array([0.2 + 0.0j]))
    # theta = (2/i) * (ybar/2) independent of x for a quadratic weight
    assert abs(th[0, 0] - (-0.2j)) < 1e-13
    jac = theta_jacobian_pairs(w, np.array([0.3 + 0.0j]), np.array([0.2 + 0.0j]))
    assert abs(jac[0] - (-1j)) < 1e-13


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


def test_bad_contour_raises():
    pd = make_phase(GAUSS, trust=1.2)
    good = build_good_contour(pd)
    bad = GoodContour(center=good.center, b=-good.b)
    with pytest.raises(BadContour):
        verify_contour(pd, bad, 0.36, n_samples=2000, seed=0)


def test_margin_shrinks_with_radius_on_concave_perturbation():
    # a negative quartic term erodes the inversion margin as the sampling
    # radius grows; the positive-quartic weight only improves it
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 2), -0.1, 0.0)], trust=1.0)
    margins = [inversion_margin(w, w.base, r, n_samples=4000, seed=0)
               for r in (0.1, 0.3, 0.6, 0.9)]
    assert all(np.diff(margins) < 0)
    assert margins[-1] > 0

    w2 = make_weight(QUARTIC, trust=1.0)
    m_small = inversion_margin(w2, w2.base, 0.1, n_samples=4000, seed=0)
    m_big = inversion_margin(w2, w2.base, 0.9, n_samples=4000, seed=0)
    assert m_big >= m_small > 0
