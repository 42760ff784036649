import numpy as np
import pytest

from bergman.amplitude import solve_amplitude
from bergman.errors import (ConfigInvalid, DegenerateFit,
                            QuadratureUnderresolved)
from bergman.projector import (apply_projection, assemble_kernel, check_domain,
                               decay_fit, make_domain, reproducing_error,
                               weighted_norm)
from bergman.quadrature import disc_grid
from bergman.series import TruncatedSeries
from bergman.weight import validate_weight
from bergman.phase import build_phase

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]


PRODUCT = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
           ((2, 0, 2, 0), 0.1, 0.0), ((0, 2, 0, 2), 0.05, 0.0)]


def pipeline(triples, order, maxdeg=16, trust=1.2, n=1):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    w = validate_weight(s, [0j] * n, trust)
    amp = solve_amplitude(build_phase(w), order)
    return w, amp


def monomial(k, maxdeg=None):
    return TruncatedSeries.from_triples([((k,), 1.0, 0.0)], 1, maxdeg or k)


def test_gaussian_kernel_closed_form():
    w, amp = pipeline(GAUSS, 6)
    for h in (0.2, 0.1, 0.05):
        K = assemble_kernel(w, amp, h)
        rng = np.random.default_rng(4)
        xs = 0.5 * (rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1)))
        ys = 0.5 * (rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1)))
        got = K.eval(xs, ys)
        want = np.exp(xs[:, 0] * np.conj(ys[:, 0]) / h) / (np.pi * h)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_kernel_diagonal_real_positive():
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    K = assemble_kernel(w, amp, 0.1)
    xs = np.array([[0.0j], [0.2 + 0.1j], [0.3 - 0.25j]])
    vals = K.eval(xs, xs)
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(vals.real)
    assert np.all(vals.real > 0)


def test_kernel_hermitian():
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    K = assemble_kernel(w, amp, 0.1)
    rng = np.random.default_rng(0)
    xs = 0.3 * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)))
    ys = 0.3 * (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)))
    assert np.allclose(np.conj(K.eval(xs, ys)), K.eval(ys, xs), rtol=1e-12)


def test_projection_reproduces_holomorphic_inputs():
    w, amp = pipeline(GAUSS, 6)
    K = assemble_kernel(w, amp, 0.1)
    dom = make_domain((1.0,))
    pts = np.array([[0.0j], [0.2 + 0.0j], [0.1 - 0.2j]])
    got1 = apply_projection(K, monomial(0, 4), w, dom, pts)
    # boundary truncation deficit at the origin: 1 - e^{-R^2/h} with R = 1
    assert abs(got1[0] - (1.0 - np.exp(-10.0))) < 1e-6
    goty = apply_projection(K, monomial(1, 4), w, dom, pts)
    assert abs(goty[1] - 0.2) < 1e-3
    assert abs(goty[0]) < 1e-12


def test_projection_is_linear():
    w, amp = pipeline(GAUSS, 4)
    K = assemble_kernel(w, amp, 0.1)
    dom = make_domain((1.0,))
    pts = np.array([[0.15 + 0.1j], [0.0j]])
    u = TruncatedSeries.from_triples([((0,), 1.0, 0.0), ((2,), -0.5, 0.25)], 1, 4)
    v = TruncatedSeries.from_triples([((1,), 2.0, 0.0)], 1, 4)
    lhs = apply_projection(K, u + v, w, dom, pts)
    rhs = apply_projection(K, u, w, dom, pts) + apply_projection(K, v, w, dom, pts)
    assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("triples, n, order, maxdeg, u, pts", [
    pytest.param(QUARTIC, 1, 4, 26, monomial(2, 6),
                 [[0.1 + 0.05j], [0.0j], [0.25j]], id="n1-quartic"),
    pytest.param(PRODUCT, 2, 1, 8,
                 TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 4),
                 [[0.1 + 0.05j, -0.1j], [0.0j, 0.0j], [0.25j, 0.15 + 0.0j]],
                 id="n2-product"),
])
def test_projection_fast_path_matches_generic(triples, n, order, maxdeg, u, pts):
    # same nodes, same integrand: block-bilinear path must agree with direct sums
    w, amp = pipeline(triples, order, maxdeg=maxdeg, trust=1.0, n=n)
    K = assemble_kernel(w, amp, 0.1)
    n_radial, n_angular = (24, 48) if n == 1 else (6, 12)
    dom = make_domain((0.7,) * n, n_radial=n_radial, n_angular=n_angular)
    pts = np.array(pts)
    fast = apply_projection(K, u, w, dom, pts)
    phiy = w.phi(dom.nodes)
    uy = u.eval_grid(dom.nodes)
    slow = np.array([(dom.weights * K.eval(np.broadcast_to(x[None, :], dom.nodes.shape), dom.nodes)
                      * np.exp(-2.0 * phiy / 0.1) * uy).sum() for x in pts])
    assert np.allclose(fast, slow, rtol=1e-12)


def test_projection_small_h_stays_finite():
    # exp(2 Psi / h) alone overflows at this h; the combined exponent does not
    w, amp = pipeline(GAUSS, 4, maxdeg=16)
    h = 3e-4
    K = assemble_kernel(w, amp, h)
    dom = make_domain((1.0,), n_radial=64, n_angular=128)
    pts = np.array([[0.1 + 0.0j], [0.3j], [-0.35 + 0.2j]])
    got = apply_projection(K, monomial(0, 4), w, dom, pts)
    # P u(0.3i) is ~1e32 from cancellation; e^{-phi/h} sets the meaningful scale
    weighted = np.abs(got - 1.0) * np.exp(-w.phi(pts) / h)
    assert np.all(weighted < 1e-12), weighted


def test_projection_refinement_guard():
    w, amp = pipeline(GAUSS, 4)
    K = assemble_kernel(w, amp, 0.05)
    pts = np.array([[0.1 + 0.0j]])
    coarse = make_domain((1.0,), n_radial=3, n_angular=8)
    with pytest.raises(QuadratureUnderresolved):
        apply_projection(K, monomial(3, 6), w, coarse, pts, tol=1e-10)
    fine = make_domain((1.0,), n_radial=64, n_angular=128)
    apply_projection(K, monomial(3, 6), w, fine, pts, tol=1e-8)


def test_domain_guards():
    w, _ = pipeline(GAUSS, 2, trust=1.2)
    too_big = make_domain((1.5,))
    with pytest.raises(ConfigInvalid):
        check_domain(too_big, w)
    ok = make_domain((1.0,))
    check_domain(ok, w)
    assert ok.refined(2).nodes.shape[0] == 4 * ok.nodes.shape[0]


def test_single_radius_domain_is_the_disc_grid():
    dom = make_domain((0.8,), 24, 48)
    nodes, weights = disc_grid(0.8, 24, 48)
    assert np.array_equal(dom.nodes, nodes[:, None])
    assert np.array_equal(dom.weights, weights)


def test_weighted_norm_gaussian_closed_form():
    # ||1||^2 = integral over |y|<R of e^{-|y|^2/h} = pi h (1 - e^{-R^2/h})
    w, _ = pipeline(GAUSS, 2)
    h = 0.1
    dom = make_domain((0.8,))
    ones = np.ones(dom.nodes.shape[0], dtype=complex)
    got = weighted_norm(w, ones, dom, h)
    want = np.sqrt(np.pi * h * (1.0 - np.exp(-0.64 / h)))
    assert abs(got - want) < 1e-12


def test_weighted_norm_survives_huge_values():
    # P u - u reaches ~1e270 at small h; squaring before damping overflows
    w, _ = pipeline(GAUSS, 2)
    h = 0.1
    dom = make_domain((0.8,))
    huge = 1e200 * np.ones(dom.nodes.shape[0], dtype=complex)
    got = weighted_norm(w, huge, dom, h)
    want = 1e200 * np.sqrt(np.pi * h * (1.0 - np.exp(-0.64 / h)))
    assert abs(got - want) < 1e-12 * want


def test_reproducing_error_decreases_with_h():
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    inner = make_domain((0.35,), n_radial=16, n_angular=32)
    outer = make_domain((0.7,), n_radial=48, n_angular=96)
    errs = []
    for h in (0.2, 0.1, 0.05):
        K = assemble_kernel(w, amp, h)
        errs.append(reproducing_error(K, monomial(1, 6), w, inner, outer))
    assert errs[0] > errs[1] > errs[2] > 0


def test_reproducing_error_requires_nested_domains():
    w, amp = pipeline(GAUSS, 2)
    K = assemble_kernel(w, amp, 0.1)
    inner = make_domain((1.0,))
    outer = make_domain((0.5,))
    with pytest.raises(ConfigInvalid):
        reproducing_error(K, monomial(0, 2), w, inner, outer)


def test_higher_order_correction_scales_like_h4():
    # |K_4 - K_3| at fixed points is a_4 h^4 e^{2 Re Psi / h} / h: the h^4
    # prefactor should emerge as slope ~4 on a log-log fit in h
    w, amp4 = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    amp3 = solve_amplitude(build_phase(w), 3)
    x = np.array([[0.1 + 0.05j]])
    y = np.array([[0.12 - 0.02j]])
    hs = np.array([0.2, 0.1, 0.05, 0.025])
    diffs = []
    for h in hs:
        k4 = assemble_kernel(w, amp4, h).eval(x, y)[0]
        k3 = assemble_kernel(w, amp3, h).eval(x, y)[0]
        base = assemble_kernel(w, amp3, h).eval(x, x)[0]
        diffs.append(abs(k4 - k3) / abs(base))
    slope = np.polyfit(np.log(hs), np.log(diffs), 1)[0]
    assert 4.4 > slope > 3.6


def test_decay_fit_recovers_exponential_rate():
    hs = np.array([0.2, 0.15, 0.1, 0.07, 0.05])
    errs = 3.0 * np.exp(-0.5 / hs)
    fit = decay_fit(list(zip(hs, errs)))
    assert abs(fit.beta - 0.5) < 1e-12
    assert abs(fit.r2 - 1.0) < 1e-12
    assert abs(fit.alpha - np.log(3.0)) < 1e-12
    assert fit.r2 > fit.r2_loglog


def test_decay_fit_flags_power_law():
    hs = np.array([0.2, 0.15, 0.1, 0.07, 0.05])
    fit = decay_fit(list(zip(hs, 2.0 * hs ** 2)))
    assert fit.r2_loglog > fit.r2


def test_decay_fit_degenerate_inputs():
    with pytest.raises(DegenerateFit):
        decay_fit([(0.2, 1e-15), (0.1, 1e-15), (0.05, 1e-15)])
    with pytest.raises(DegenerateFit):
        decay_fit([(0.2, 1.0), (0.1, 1.0)])
    with pytest.raises(DegenerateFit):
        decay_fit([(0.2, 0.0), (0.1, 0.0), (0.05, 0.0)])
