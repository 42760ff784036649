import numpy as np
import pytest

from bergman.amplitude import Amplitude, solve_amplitude
from bergman.errors import BadContour, BergmanError, ConfigInvalid, IllConditioned
from bergman.oracle import (QuadratureCase, compare_kernels,
                            fourier_inversion_check, gram_bergman,
                            inequality_suite, localized_element,
                            near_diagonal_pairs, pointwise_bound_check,
                            sp_quadrature_check)
from bergman.projector import assemble_kernel, make_domain
from bergman.series import TruncatedSeries
from bergman.weight import validate_weight
from bergman.phase import build_phase

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]
CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.02, 0.0), ((1, 2), 0.02, 0.0)]


def make_weight(triples, maxdeg=16, trust=1.2):
    s = TruncatedSeries.from_triples(triples, 2, maxdeg)
    return validate_weight(s, [0j], trust)


def monomial(k, maxdeg=None):
    return TruncatedSeries.from_triples([((k,), 1.0, 0.0)], 1, maxdeg or k)


# -- Gram oracle --------------------------------------------------------------

def test_gram_gaussian_origin_closed_form():
    w = make_weight(GAUSS)
    dom = make_domain((1.0,))
    gk = gram_bergman(w, dom, 0.1, 25)
    # truncating the plane to the disc scales the constant's norm by 1 - e^{-1/h}
    want = 1.0 / (np.pi * 0.1 * (1.0 - np.exp(-10.0)))
    got = gk.eval(np.array([[0j]]), np.array([[0j]]))[0]
    assert abs(got - want) / want < 1e-9
    assert gk.cond < 10.0


def test_gram_diagonal_for_radial_weight():
    w = make_weight(QUARTIC, trust=1.0)
    dom = make_domain((0.7,))
    gk = gram_bergman(w, dom, 0.1, 12)
    off = gk.gram - np.diag(np.diag(gk.gram))
    assert np.max(np.abs(off)) < 1e-12 * np.max(np.abs(gk.gram))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gram_lambda_family_origin(lam):
    w = make_weight([((1, 1), lam, 0.0)])
    h = 0.05
    dom = make_domain((1.0,))
    gk = gram_bergman(w, dom, h, 28)
    got = gk.eval(np.array([[0j]]), np.array([[0j]]))[0]
    assert abs(got - 2 * lam / (np.pi * h)) / (2 * lam / (np.pi * h)) < 1e-6


def test_gram_degree_stability():
    w = make_weight(QUARTIC, trust=1.0)
    dom = make_domain((0.7,))
    at0 = [gram_bergman(w, dom, 0.1, D).eval(np.array([[0j]]), np.array([[0j]]))[0]
           for D in (20, 25)]
    assert abs(at0[1] - at0[0]) / abs(at0[0]) < 1e-6


def test_gram_reproduces_basis_monomials():
    w = make_weight(QUARTIC, trust=1.0)
    dom = make_domain((0.7,))
    gk = gram_bergman(w, dom, 0.1, 15)
    xs = np.array([[0.0j], [0.15 + 0.1j], [0.2 - 0.05j]])
    for k in range(4):
        got = gk.project(monomial(k, 6), xs)
        want = (xs[:, 0]) ** k
        assert np.max(np.abs(got - want)) < 1e-8


def test_gram_kernel_hermitian_eval():
    w = make_weight(QUARTIC, trust=1.0)
    dom = make_domain((0.7,))
    gk = gram_bergman(w, dom, 0.1, 12)
    rng = np.random.default_rng(5)
    xs = 0.3 * (rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)))
    ys = 0.3 * (rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)))
    assert np.allclose(np.conj(gk.eval(xs, ys)), gk.eval(ys, xs), rtol=1e-10)


def test_gram_angular_resolution_guard():
    w = make_weight(GAUSS)
    dom = make_domain((1.0,), n_radial=32, n_angular=64)
    with pytest.raises(ConfigInvalid):
        gram_bergman(w, dom, 0.1, 20)     # needs n_angular >= 80
    with pytest.raises(ConfigInvalid):
        gram_bergman(w, dom, 0.0, 10)     # h must be positive


def test_gram_ill_conditioned_anisotropic():
    # phi = |x|^2/2 + 0.49 Re(x^2) is nearly degenerate along one axis; the
    # monomial family becomes numerically collinear and the cap trips
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 0), 0.245, 0.0),
                     ((0, 2), 0.245, 0.0)])
    dom = make_domain((1.0,), n_radial=96, n_angular=160)
    with pytest.raises(IllConditioned):
        gram_bergman(w, dom, 0.02, 35)


# -- kernel comparison --------------------------------------------------------

def test_near_diagonal_pairs_layout():
    x, y = near_diagonal_pairs(0.2, 20)
    assert x.shape == (20, 1) and y.shape == (20, 1)
    assert np.allclose(x[0], y[0])          # even entries on the diagonal
    assert not np.allclose(x[1], y[1])      # odd entries offset
    assert np.max(np.abs(x)) <= 0.2 + 1e-12


def test_compare_kernels_gaussian():
    w = make_weight(GAUSS)
    amp = solve_amplitude(build_phase(w), 6)
    K = assemble_kernel(w, amp, 0.1)
    gk = gram_bergman(w, make_domain((1.0,)), 0.1, 25)
    # sampling radius 0.1: the disc-truncation deficit e^{-(1-r)^2/h} of the
    # Gram oracle stays below the 1e-3 budget
    x, y = near_diagonal_pairs(0.1, 20)
    stats = compare_kernels(K, gk, x, y)
    assert 0 < stats.median_rel <= stats.max_rel < 1e-3


def test_compare_kernels_null_amplitude():
    w = make_weight(GAUSS)
    zero = TruncatedSeries.zero(2, 4)
    null = Amplitude(n=1, order=0, coeffs=[zero], c0=0.0 + 0.0j)
    K = assemble_kernel(w, null, 0.1)
    gk = gram_bergman(w, make_domain((1.0,)), 0.1, 20)
    x, y = near_diagonal_pairs(0.25, 10)
    stats = compare_kernels(K, gk, x, y)
    assert abs(stats.max_rel - 1.0) < 1e-6


def test_n1_pairs_on_n2_kernel_raise_package_error():
    # compare_kernels evaluates the asymptotic kernel first; near_diagonal_pairs
    # gives (m, 1) points, which an n = 2 kernel must refuse by a BergmanError
    product = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
               ((2, 0, 2, 0), 0.1, 0.0), ((0, 2, 0, 2), 0.05, 0.0)]
    w = validate_weight(TruncatedSeries.from_triples(product, 4, 8), [0j, 0j], 1.0)
    K = assemble_kernel(w, solve_amplitude(build_phase(w), 1), 0.1)
    x, y = near_diagonal_pairs(0.1, 20)
    with pytest.raises(BergmanError):
        K.eval(x, y)


# -- Fourier inversion --------------------------------------------------------

def test_fourier_gaussian_constant():
    w = make_weight(GAUSS)
    residuals = []
    for chk in fourier_inversion_check(w, monomial(0, 2), w.base, 1.0, 96, 192,
                                       (0.2, 0.1, 0.05)):
        assert abs(chk.target - 1.0) < 1e-15
        residuals.append(chk.residual)
    assert residuals[0] < 1e-1
    assert residuals[1] < 1e-2
    assert residuals[0] > residuals[1] > residuals[2]


def test_fourier_odd_monomial_vanishes():
    w = make_weight(GAUSS)
    chk, = fourier_inversion_check(w, monomial(1, 2), w.base, 1.0, 64, 128, [0.1])
    assert abs(chk.value) < 1e-14
    assert chk.residual < 1e-14


def test_fourier_orientation_detector():
    w = make_weight(GAUSS)
    chk, = fourier_inversion_check(w, monomial(0, 2), w.base, 1.0, 64, 128, [0.1],
                                   orientation=-1.0)
    assert abs(chk.value + 1.0) < 1e-2
    assert chk.residual > 1.9


def test_fourier_point_must_sit_on_plateau():
    w = make_weight(GAUSS)
    with pytest.raises(ConfigInvalid):
        fourier_inversion_check(w, monomial(0, 2), np.array([0.7 + 0.0j]), 1.0, 64, 128,
                                [0.1])


# -- pointwise bound ----------------------------------------------------------

def test_pointwise_bound_gaussian_closed_form():
    w = make_weight(GAUSS)
    inner = make_domain((0.5,), n_radial=24, n_angular=48)
    outer = make_domain((1.0,))
    hs = [0.2, 0.15, 0.1, 0.07, 0.05]
    pb = pointwise_bound_check(w, monomial(0, 2), inner, outer, hs)
    # sup |e^{-phi/h}| = 1 at 0; norm = sqrt(pi h (1 - e^{-1/h})); the grid
    # has no node exactly at 0, so agreement is at quadrature precision
    for h, got in zip(hs, pb.ratios):
        want = np.sqrt(h / np.pi) / np.sqrt(1.0 - np.exp(-1.0 / h))
        assert abs(got - want) < 1e-5
    assert pb.max_ratio == max(pb.ratios)


def test_pointwise_bound_scale_invariant():
    w = make_weight(QUARTIC, trust=1.0)
    inner = make_domain((0.35,), n_radial=24, n_angular=48)
    outer = make_domain((0.7,))
    u = monomial(2, 4)
    two_u = TruncatedSeries.from_triples([((2,), 2.0, 0.0)], 1, 4)
    a = pointwise_bound_check(w, u, inner, outer, [0.1, 0.05])
    b = pointwise_bound_check(w, two_u, inner, outer, [0.1, 0.05])
    assert np.allclose(a.ratios, b.ratios, rtol=1e-12)


# -- inequality sampling ------------------------------------------------------

def test_inequality_margins_gaussian_exact():
    w = make_weight(GAUSS)
    suite = inequality_suite(w, w.base, 0.25, 0.36, 10_000, 0)
    assert abs(suite.theta_margin - 0.25) < 1e-9
    assert abs(suite.ratio_min - 0.5) < 1e-9
    assert suite.gz_margin > 0.1
    assert suite.n_samples == 10_000


def test_inequality_gz_small_delta():
    w = make_weight(GAUSS)
    suite = inequality_suite(w, w.base, 0.1, 0.36, 10_000, 0)
    assert suite.gz_margin > 0


def test_inequality_delta_beyond_gap():
    w = make_weight(GAUSS)
    with pytest.raises(BadContour):
        inequality_suite(w, w.base, 0.6, 0.36, 4000, 0)


def test_inequality_guards():
    w = make_weight(GAUSS)
    with pytest.raises(ConfigInvalid):
        inequality_suite(w, w.base, 0.0, 0.3, 100, 0)
    with pytest.raises(ConfigInvalid):
        inequality_suite(w, w.base, 0.1, 5.0, 100, 0)


def test_inequality_deterministic():
    w = make_weight(QUARTIC, trust=1.0)
    a = inequality_suite(w, w.base, 0.2, 0.3, 2000, 9)
    b = inequality_suite(w, w.base, 0.2, 0.3, 2000, 9)
    assert a == b


# -- stationary-phase quadrature ---------------------------------------------
# Symbols are built at the phase's slow degree maxdeg - 2, the most the
# expansion can use.

def test_sp_gaussian_constant_is_pi():
    w = make_weight(GAUSS)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 14), True)
    r, = sp_quadrature_check(pd, [case], [0.1])
    assert r.ok
    assert abs(r.quad - np.pi) < 1e-10
    assert abs(r.partial - np.pi) < 1e-12


def test_sp_single_pairing_value():
    # integral of x*yt against e^{2 phi / h} on the good contour: engine and
    # quadrature agree on -pi h for the Gaussian
    w = make_weight(GAUSS)
    pd = build_phase(w)
    case = QuadratureCase("xyt", TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 14), True)
    for h in (0.2, 0.1):
        r, = sp_quadrature_check(pd, [case], [h])
        assert r.ok
        assert abs(r.quad - (-np.pi * h)) < 1e-9
        assert abs(r.partial - (-np.pi * h)) < 1e-11


def test_sp_cubic_next_term_bound():
    w = make_weight(CUBIC, maxdeg=26, trust=1.2)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 24), False)
    for h in (0.1, 0.05):
        r, = sp_quadrature_check(pd, [case], [h], hmax=4)
        assert r.ok
        assert r.next_term > 0
        assert r.error <= 10.0 * r.next_term


def test_sp_rejects_higher_dimension():
    triples = [((1, 0, 1, 0), 1.0, 0.0), ((0, 1, 0, 1), 1.0, 0.0)]
    s = TruncatedSeries.from_triples(triples, 4, 8)
    w = validate_weight(s, [0j, 0j], 1.0)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 4, 0), True)
    with pytest.raises(ConfigInvalid):
        sp_quadrature_check(pd, [case], [0.1])


# -- localized elements -------------------------------------------------------

def test_localized_gaussian_frozen_values():
    w = make_weight(GAUSS)
    elem = localized_element(TruncatedSeries.constant(1.0, 1, 0), w.base, w, 0.1)
    # theta(x, 0) = -i zbar = 0, jacobian -i, so v_0(0) = -i/(2 pi h)
    v0 = elem.eval(np.array([[0j]]))[0]
    assert abs(v0 - (-1j / (2 * np.pi * 0.1))) < 1e-12
    assert abs(elem.delta - 0.25) < 1e-9
    assert abs(elem.margin - 0.25) < 1e-9
    assert 0 < elem.domination_C < 1.0


def test_localized_zero_prefactor():
    w = make_weight(GAUSS)
    elem = localized_element(monomial(1, 2), w.base, w, 0.1)
    assert elem.v_value == 0
    xs = np.array([[0.1 + 0.1j], [0.2j]])
    assert np.max(np.abs(elem.eval(xs))) == 0.0


def test_localized_center_outside_trust():
    w = make_weight(GAUSS, trust=1.0)
    with pytest.raises(ConfigInvalid):
        localized_element(TruncatedSeries.constant(1.0, 1, 0),
                          np.array([1.1 + 0.0j]), w, 0.1)


def test_localized_plateau_must_cover_center():
    w = make_weight(GAUSS, trust=1.0)
    with pytest.raises(ConfigInvalid):
        localized_element(TruncatedSeries.constant(1.0, 1, 0),
                          np.array([0.7 + 0.0j]), w, 0.1,
                          plateau=0.5, support=0.9)


def test_localized_domination_fails_with_huge_delta():
    w = make_weight(GAUSS, trust=1.0)
    with pytest.raises(BadContour):
        localized_element(TruncatedSeries.constant(1.0, 1, 0), w.base, w, 0.1,
                          delta=0.7)
