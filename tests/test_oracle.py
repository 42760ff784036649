import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from bergman import oracle
from bergman.amplitude import Amplitude, solve_amplitude
from bergman.errors import (BadContour, BergmanError, ConfigInvalid, IllConditioned,
                            QuadratureUnderresolved)
from bergman.cli import RunState, _sp_cases, load_config
from bergman.oracle import (SP_MAX_RADIUS, SP_PROBE_ANGLES, SP_PROBE_RADII,
                            QuadratureCase, _contour_radius, compare_kernels,
                            fourier_inversion_check, gram_bergman,
                            inequality_suite, localized_element,
                            near_diagonal_pairs, pointwise_bound_check,
                            sp_quadrature_check)
from bergman.projector import assemble_kernel, make_domain
from bergman.series import TruncatedSeries
from bergman.weight import Weight, validate_weight
from bergman.phase import build_phase, fast_uv, phase_on_contour

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]
CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.02, 0.0), ((1, 2), 0.02, 0.0)]


def make_weight(triples, maxdeg=16, trust=1.2):
    s = TruncatedSeries.from_triples(triples, 2, maxdeg)
    return validate_weight(s, trust)


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
    # project by quadrature through the kernel: sum_k e_k(x) <u, e_k> over
    # the grid's nodes, weighted by e^{-2 phi/h}
    w = make_weight(QUARTIC, trust=1.0)
    dom = make_domain((0.7,))
    h = 0.1
    gk = gram_bergman(w, dom, h, 15)
    damp = dom.weights * np.exp(-2.0 * dom.phi(w) / h)
    on_nodes = oracle._monomial_table(dom.nodes, gk.basis) @ gk.onb
    xs = np.array([[0.0j], [0.15 + 0.1j], [0.2 - 0.05j]])
    for k in range(4):
        coef = on_nodes.conj().T @ (damp * monomial(k, 6).eval_grid(dom.nodes))
        got = (oracle._monomial_table(xs, gk.basis) @ gk.onb) @ coef
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


def test_gram_builds_no_node_table_and_shares_the_grid(monkeypatch):
    # G is read off the weighted measure's polar moments, so no node x basis
    # table is built and the grid's memo holds phi alone; five h on one grid
    # equal the kernels of fresh grids bit for bit
    w = make_weight(QUARTIC, trust=1.0)
    hs = (0.2, 0.15, 0.1, 0.07, 0.05)
    fresh = [gram_bergman(w, make_domain((0.7,)), h, 25) for h in hs]
    dom = make_domain((0.7,))
    tables = []
    table = oracle._monomial_table
    monkeypatch.setattr(oracle, "_monomial_table",
                        lambda disp, basis: tables.append(len(disp)) or table(disp, basis))
    shared = [gram_bergman(w, dom, h, 25) for h in hs]
    assert tables == [] and list(dom.memo) == [("phi", w)]
    for a, b in zip(shared, fresh):
        assert np.array_equal(a.gram, b.gram) and np.array_equal(a.onb, b.onb)
        assert a.cond == b.cond


def node_sum_gram(w, dom, h, basis):
    """V^H diag(weights e^{-2 phi/h}) V with V the basis on the grid's nodes:
    the Gram matrix as summed before it was read off polar moments, kept as
    a reference."""
    V = oracle._monomial_table(dom.nodes, basis)
    wts = dom.weights * np.exp(-2.0 * dom.phi(w) / h)
    return V.conj().T @ (wts[:, None] * V)


NONRADIAL_2D = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
                ((1, 0, 0, 1), 0.1, 0.0), ((0, 1, 1, 0), 0.1, 0.0),
                ((2, 0, 1, 1), 0.02, 0.01), ((1, 1, 2, 0), 0.02, -0.01)]


@pytest.mark.parametrize("n", [1, 2])
def test_gram_equals_the_node_sum_reference(n):
    # the same quadrature sums in another order: entrywise within 1e-14 of
    # sqrt(G_ss G_tt), the Cauchy-Schwarz bound of |G_st|
    if n == 1:
        w = make_weight(QUARTIC + [((3, 1), 0.025, 0.01), ((1, 3), 0.025, -0.01)], trust=1.0)
        dom, degree = make_domain((0.7,)), 25
    else:
        w = validate_weight(TruncatedSeries.from_triples(NONRADIAL_2D, 4, 8), 1.0)
        dom, degree = make_domain((0.7, 0.6), n_radial=10, n_angular=24), 6
    for h in (0.2, 0.1, 0.05):
        gk = gram_bergman(w, dom, h, degree)
        ref = node_sum_gram(w, dom, h, gk.basis)
        scale = np.sqrt(np.outer(ref.diagonal().real, ref.diagonal().real))
        assert (np.abs(gk.gram - ref) / scale).max() <= 1e-14, (n, h)


def test_grid_memo_keys_phi_and_gram_on_the_weight():
    # two weights on one grid: each gets its own phi and kernel, bit-equal
    # to a fresh grid's, whichever comes first
    dom = make_domain((0.7,))
    quartic, gauss = make_weight(QUARTIC, trust=1.0), make_weight(GAUSS, trust=1.0)
    for w in (quartic, gauss, quartic):
        fresh = make_domain((0.7,))
        a, b = gram_bergman(w, dom, 0.1, 20), gram_bergman(w, fresh, 0.1, 20)
        assert np.array_equal(a.gram, b.gram) and np.array_equal(a.onb, b.onb)
        assert np.array_equal(dom.phi(w), w.phi(dom.nodes))
    assert not np.array_equal(dom.phi(quartic), dom.phi(gauss))


WIDE_DISC = make_domain((2.5,), n_radial=160, n_angular=192)


def test_gram_matches_the_radial_moment_kernel():
    # on a radial weight the monomials are orthogonal, so the span's kernel
    # is sum_k (x conj y)^k / m_k with m_k = 2 pi int r^(2k+1) e^{-2 phi/h} dr;
    # e^{-2 phi/h} is below e^{-70} beyond the 2.5 disc
    w = make_weight(QUARTIC, trust=3.0)
    x, y = near_diagonal_pairs(0.105)
    z = x[:, 0] * y[:, 0].conj()
    for h in (0.2, 0.1, 0.05):
        def moment(k):
            return 2 * np.pi * quad(lambda r: r ** (2 * k + 1) * np.exp(-(r * r + 0.2 * r ** 4) / h),
                                    0, np.inf, epsabs=0, epsrel=1e-13, limit=200)[0]
        for degree in (25, 40):
            want = sum(z ** k / moment(k) for k in range(degree + 1))
            got = gram_bergman(w, WIDE_DISC, h, degree).eval(x, y)
            assert np.abs(got / want - 1).max() < 1e-12, (h, degree)


def test_gram_wide_discs_agree_on_a_nonradial_weight():
    # phi = |x|^2/2 + 0.1|x|^4 + 0.05 Re(x^3 conj x) is coercive: e^{-2 phi/h}
    # is below e^{-50} beyond the 2.5 disc, so both discs hold the kernel
    w = make_weight(QUARTIC + [((3, 1), 0.025, 0.0), ((1, 3), 0.025, 0.0)], trust=3.0)
    wider = make_domain((3.0,), n_radial=160, n_angular=192)
    x, y = near_diagonal_pairs(0.105)
    for h in (0.2, 0.1, 0.05):
        a = gram_bergman(w, WIDE_DISC, h, 40).eval(x, y)
        b = gram_bergman(w, wider, h, 40).eval(x, y)
        assert np.abs(a / b - 1).max() < 1e-12, h


# -- kernel comparison --------------------------------------------------------

def test_near_diagonal_pairs_layout():
    x, y = near_diagonal_pairs(0.2)
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
    x, y = near_diagonal_pairs(0.1)
    stats = compare_kernels(K, gk, x, y)
    assert 0 < stats.median_rel <= stats.max_rel < 1e-3


def test_compare_kernels_null_amplitude():
    w = make_weight(GAUSS)
    zero = TruncatedSeries.zero(2, 4)
    null = Amplitude(n=1, order=0, coeffs=[zero], c0=0.0 + 0.0j)
    K = assemble_kernel(w, null, 0.1)
    gk = gram_bergman(w, make_domain((1.0,)), 0.1, 20)
    x, y = near_diagonal_pairs(0.25)
    stats = compare_kernels(K, gk, x, y)
    assert abs(stats.max_rel - 1.0) < 1e-6


@pytest.mark.parametrize("size", [1, 2, 19, 20, 39, 40])
def test_median_is_numpys(size):
    # odd sizes take the middle value, even ones the mean of the two middle
    # values, bit for bit as np.median does
    rng = np.random.default_rng(size)
    for _ in range(50):
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        assert oracle._median(x) == float(np.median(x))


def test_n1_pairs_on_n2_kernel_raise_package_error():
    # compare_kernels evaluates the asymptotic kernel first; near_diagonal_pairs
    # gives (m, 1) points, which an n = 2 kernel must refuse by a BergmanError
    product = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
               ((2, 0, 2, 0), 0.1, 0.0), ((0, 2, 0, 2), 0.05, 0.0)]
    w = validate_weight(TruncatedSeries.from_triples(product, 4, 8), 1.0)
    K = assemble_kernel(w, solve_amplitude(build_phase(w), 1), 0.1)
    x, y = near_diagonal_pairs(0.1)
    with pytest.raises(BergmanError):
        K.eval(x, y)


# -- Fourier inversion --------------------------------------------------------

def test_fourier_gaussian_constant():
    w = make_weight(GAUSS)
    residuals = []
    checks, = fourier_inversion_check(w, [monomial(0, 2)], 1.0, (0.2, 0.1, 0.05))
    for chk in checks:
        assert abs(chk.target - 1.0) < 1e-15
        residuals.append(chk.residual)
    assert residuals[0] < 1e-1
    assert residuals[1] < 1e-2
    assert residuals[0] > residuals[1] > residuals[2]


def test_fourier_odd_monomial_vanishes():
    w = make_weight(GAUSS)
    (chk,), = fourier_inversion_check(w, [monomial(1, 2)], 1.0, [0.1])
    assert abs(chk.value) < 1e-14
    assert chk.residual < 1e-14


def test_fourier_orientation_detector(monkeypatch):
    w = make_weight(GAUSS)
    monkeypatch.setattr(oracle, "CONTOUR_ORIENTATION", -1.0)
    (chk,), = fourier_inversion_check(w, [monomial(0, 2)], 1.0, [0.1])
    assert abs(chk.value + 1.0) < 1e-2
    assert chk.residual > 1.9


def test_fourier_builds_the_contour_once_for_every_test_function(monkeypatch):
    # one call over four test functions equals four single calls bit for
    # bit, and pairs x with theta on the disc once
    w = make_weight(QUARTIC, trust=1.0)
    us = [monomial(k, 3) for k in range(4)]
    hs = (0.2, 0.1, 0.05)
    single = [fourier_inversion_check(w, [u], 0.7, hs)[0] for u in us]
    pairings = []
    pairing = oracle.theta_pairing
    monkeypatch.setattr(oracle, "theta_pairing",
                        lambda *args: pairings.append(1) or pairing(*args))
    assert fourier_inversion_check(w, us, 0.7, hs) == single
    assert len(pairings) == 1


def general_point_fourier(w, us, x, radius, h_values):
    """The inversion check at any point x of the cutoff's plateau: the
    oracle's form before it was narrowed to the origin, kept as a reference."""
    xs = oracle._as_points(x, w.n)
    plateau = oracle.FOURIER_PLATEAU_FRAC * radius
    support = oracle.FOURIER_SUPPORT_FRAC * radius
    if float(np.abs(xs).max()) >= plateau:
        raise ConfigInvalid("evaluation point lies outside the cutoff plateau")
    nodes, wts = oracle.disc_grid(support, oracle.FOURIER_N_RADIAL,
                                  oracle.FOURIER_N_ANGULAR, (plateau,))
    y = nodes[:, None]
    chi = oracle.radial_bump(np.abs(nodes), plateau, support)
    jac = oracle.theta_jacobian_pairs(w, xs, y)
    pairing = oracle.theta_pairing(w, xs, y)
    phi_x = float(w.phi(xs)[0])
    uys = [u.eval_grid(y) for u in us]
    targets = [complex(u.eval_grid(xs)[0]) for u in us]
    checks = [[] for _ in us]
    for h in h_values:
        wave = np.exp(1j * pairing / h)
        const = oracle.CONTOUR_ORIENTATION * (2j) ** w.n / (2.0 * np.pi * h) ** w.n
        for uy, target, out in zip(uys, targets, checks):
            vals = wave * uy * chi * jac
            value = complex(const * (wts * vals).sum())
            residual = abs(value - target) * math.exp(-phi_x / h)
            out.append(oracle.FourierCheck(value=value, target=target,
                                           residual=residual, h=h))
    return checks


def general_point_localized(v, z, w, h, delta, seed=0):
    """(margin, domination_C) of the localized element of the symbol v at any
    point z of the cutoff's plateau: the oracle's form before it was narrowed
    to the symbol 1 at the origin, kept as a reference."""
    z = np.asarray(z, dtype=complex).reshape(w.n)
    plateau, support = 0.6 * w.trust_radius, 0.9 * w.trust_radius
    zdist = float(np.abs(z).max())
    assert zdist <= plateau
    x = oracle.sobol_ball(w.n, support, oracle.LOCALIZED_SAMPLES, seed=seed)
    margin = float(oracle.theta_ratio(w, x, z[None, :], support).min()) - delta
    chi_value = float(oracle.radial_bump(np.array([zdist]), plateau, support)[0])
    v_value = complex(v.eval_grid(z[None, :])[0])
    if v_value == 0:
        return margin, 0.0
    jac = oracle.theta_jacobian_pairs(w, x, z[None, :])
    pairing = oracle.theta_pairing(w, x, z[None, :])
    pref = v_value * chi_value / (2.0 * np.pi * h) ** w.n
    vals = np.abs(pref * np.exp(1j * pairing / h) * jac) * np.exp(-w.phi(x) / h)
    sep2 = (np.abs(x - z[None, :]) ** 2).sum(axis=1)
    ref = (abs(v_value) * chi_value * h ** (-w.n)
           * math.exp(-float(w.phi(z[None, :])[0]) / h)
           * np.exp(-delta * sep2 / h))
    return margin, float((vals / ref).max())


@pytest.mark.parametrize("name", ["gaussian", "perturbed-quartic", "nonradial-quartic"])
def test_origin_oracles_equal_the_general_point_forms_at_the_origin(name):
    # the verify stage's inputs: the config's test monomials, radius_v and
    # h grid for the Fourier check; the symbol 1, the middle h, delta and
    # the seed for the localized element
    state = RunState(load_config(os.path.join(ROOT, "configs", f"{name}.json")))
    cfg, w = state.cfg, state.w
    origin = np.zeros(1)
    got = fourier_inversion_check(w, state.monomials, cfg.radius_v, cfg.h_grid)
    assert got == general_point_fourier(w, state.monomials, origin, cfg.radius_v,
                                        cfg.h_grid)
    h = cfg.h_grid[len(cfg.h_grid) // 2]
    elem = localized_element(w, h, delta=state.delta, seed=cfg.seed)
    one = TruncatedSeries.constant(1.0, 1, 0)
    assert (elem.margin, elem.domination_C) == general_point_localized(
        one, origin, w, h, state.delta, seed=cfg.seed)


# -- pointwise bound ----------------------------------------------------------

def test_pointwise_bound_gaussian_closed_form():
    w = make_weight(GAUSS)
    inner = make_domain((0.5,), n_radial=24, n_angular=48)
    outer = make_domain((1.0,))
    hs = [0.2, 0.15, 0.1, 0.07, 0.05]
    pb = pointwise_bound_check(w, monomial(0, 2), inner, outer, hs)
    # sup |e^{-phi/h}| = 1 at 0; norm = sqrt(pi h (1 - e^{-1/h})), so the
    # ratio h^{1/2} / norm is h-free up to the disc edge; the grid has no
    # node exactly at 0, so agreement is at quadrature precision
    for h, got in zip(hs, pb.ratios):
        want = 1.0 / np.sqrt(np.pi * (1.0 - np.exp(-1.0 / h)))
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
    suite = inequality_suite(w, 0.25, 0.36)
    assert abs(suite.theta_margin - 0.25) < 1e-9
    assert abs(suite.ratio_min - 0.5) < 1e-9
    assert suite.gz_margin > 0.1


def test_inequality_gz_small_delta():
    w = make_weight(GAUSS)
    suite = inequality_suite(w, 0.1, 0.36)
    assert suite.gz_margin > 0


def test_inequality_delta_beyond_gap():
    w = make_weight(GAUSS)
    with pytest.raises(BadContour):
        inequality_suite(w, 0.6, 0.36)


def test_inequality_guards():
    w = make_weight(GAUSS)
    with pytest.raises(ConfigInvalid):
        inequality_suite(w, 0.0, 0.3)
    with pytest.raises(ConfigInvalid):
        inequality_suite(w, 0.1, 5.0)


def test_inequality_deterministic():
    w = make_weight(QUARTIC, trust=1.0)
    a = inequality_suite(w, 0.2, 0.3, seed=9)
    b = inequality_suite(w, 0.2, 0.3, seed=9)
    assert a == b


# -- stationary-phase quadrature ---------------------------------------------
# Symbols are built at the phase's slow degree maxdeg - 2, the most the
# expansion can use.

def config_phase(name):
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    s = TruncatedSeries.from_triples(cfg.coefficients, 2, cfg.maxdeg)
    return build_phase(validate_weight(s, cfg.trust_radius)), cfg.h_grid


# (rho, g) of the probe scan on the canonical configs, by h
QUARTIC_PROBE = (2.197872340425532, 0.6242829536802711)
NONRADIAL_PROBE = (1.7882978723404257, 0.38401974620236357)
PROBES = {
    "perturbed-quartic": {h: QUARTIC_PROBE for h in (0.2, 0.15, 0.1, 0.07, 0.05)},
    "nonradial-quartic": {h: NONRADIAL_PROBE for h in (0.2, 0.15, 0.1, 0.07, 0.05)},
    "gaussian": {0.2: (3.918085106382979, 3.837847725215029),
                 0.05: (1.952127659574468, 0.9527005998189224)},
    "quadratic-lambda": {0.05: (1.0510638297872341, 1.1047351742870075)},
}


def node_sum_quad(pd, symbol, h):
    """(g, conj(b0)/h * sum of measure * symbol) over the nodes of the
    contour's disc at h, the symbol evaluated at (u, v) on the good contour:
    the direct quadrature sp_quadrature_check reorders."""
    rho, g = _contour_radius(pd, h)
    nodes, wts = oracle.disc_grid(rho, oracle.SP_N_RADIAL, oracle.SP_N_ANGULAR)
    measure = wts * np.exp(2.0 * phase_on_contour(pd, nodes) / h)
    fv = symbol.eval_grid(np.concatenate(fast_uv(pd, nodes), axis=1))
    return g, np.conj(pd.b0[0, 0]) / h * (measure * fv).sum()


def probe_by_circle(pd, h):
    """The probe scan with one phase evaluation per circle."""
    angles = np.exp(2j * np.pi * np.arange(SP_PROBE_ANGLES) / SP_PROBE_ANGLES)
    best = (0.0, -np.inf)
    for rho in np.linspace(0.15, SP_MAX_RADIUS, SP_PROBE_RADII):
        g = float(-phase_on_contour(pd, (rho * angles)[:, None]).real.max())
        if g <= 0.0:
            break
        if g > best[1]:
            best = (rho, g)
        if g >= 19.0 * h:
            return rho, g
    return best


@pytest.mark.parametrize("name", sorted(PROBES))
def test_contour_radius_on_canonical_configs(name):
    pd, h_grid = config_phase(name)
    for h in h_grid:
        assert _contour_radius(pd, h) == probe_by_circle(pd, h)
    for h, want in PROBES[name].items():
        assert h in h_grid
        assert _contour_radius(pd, h) == pytest.approx(want, rel=1e-12)


def test_contour_radius_rejects_a_phase_rising_on_the_first_circle():
    # a steep quartic makes Re(phi) positive on the smallest probe circle
    s = TruncatedSeries.from_triples([((1, 1), 0.5, 0.0), ((2, 2), 100.0, 0.0)], 2, 10)
    pd = build_phase(Weight(1, s, 1.0))
    with pytest.raises(BadContour, match="no positive-decay radius"):
        _contour_radius(pd, 0.1)


def test_sp_flat_weight_is_underresolved_not_failed():
    # configs/gaussian.json with Levi form 1e-6: no probe circle decays
    # (g ~ 1e-11), so the quadrature captures nothing of an expansion of size
    # ~1e11; the terminating guard must say so rather than report a failure
    cfg = load_config(os.path.join(ROOT, "configs", "gaussian.json"))
    pd = build_phase(make_weight([((1, 1), 1e-6, 0.0)], maxdeg=cfg.maxdeg,
                                 trust=cfg.trust_radius))
    case = QuadratureCase("x^1yt^1", TruncatedSeries.from_triples(
        [((1, 1), 1.0, 0.0)], 2, pd.slow_deg))
    for h in cfg.h_grid:
        assert _contour_radius(pd, h)[1] < 1e-9
        with pytest.raises(QuadratureUnderresolved, match="terminating tolerance"):
            sp_quadrature_check(pd, case, h, hmax=cfg.hmax)


@pytest.mark.parametrize("name,under,vanishing,hs", [
    ("perturbed-quartic", 21, 20, (0.2, 0.15, 0.1, 0.07)),
    ("nonradial-quartic", 28, 25, (0.2, 0.15, 0.1, 0.07, 0.05)),
])
def test_sp_underresolved_rows_are_mostly_expansions_that_vanish(name, under, vanishing,
                                                                 hs):
    # Evidence for the guard fix, not a wanted behaviour: most of the
    # verify stage's QuadratureUnderresolved rows are cases whose expansion
    # is 0 at every order.  The `not (vals > 0).any()` clause sends them to
    # the terminating guard, which asks e^{-2g/h} <= 2.5e-9 in absolute
    # terms, while the disc quadrature of these rows reads at most 8.1e-17.
    cfg = load_config(os.path.join(ROOT, "configs", f"{name}.json"))
    pd = RunState(cfg).pd
    rows, zero = [], []
    for h in cfg.h_grid:
        for case in _sp_cases(pd):
            try:
                sp_quadrature_check(pd, case, h, hmax=cfg.hmax)
                continue
            except QuadratureUnderresolved:
                rows.append((case.name, h))
            if (oracle._sp_expansion(pd, case.symbol, cfg.hmax) == 0).all():
                zero.append((case.name, h))
                g, quad = node_sum_quad(pd, case.symbol, h)
                assert abs(quad) <= 8.1e-17
                assert math.exp(-2.0 * g / h) > 0.25 * oracle.SP_TERMINATING_TOL
    assert (len(rows), len(zero)) == (under, vanishing)
    names = ["x^1yt^0", "x^0yt^1", "x^2yt^1", "x^1yt^2", "x^3yt^2"]
    assert sorted(zero) == sorted((c, h) for c in names for h in hs)


def test_sp_gaussian_constant_is_pi():
    w = make_weight(GAUSS)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 14))
    r = sp_quadrature_check(pd, case, 0.1, hmax=6)
    assert r.ok
    assert abs(r.quad - np.pi) < 1e-10
    assert abs(r.partial - np.pi) < 1e-12


def test_sp_single_pairing_value():
    # integral of x*yt against e^{2 phi / h} on the good contour: engine and
    # quadrature agree on -pi h for the Gaussian
    w = make_weight(GAUSS)
    pd = build_phase(w)
    case = QuadratureCase("xyt", TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 14))
    for h in (0.2, 0.1):
        r = sp_quadrature_check(pd, case, h, hmax=6)
        assert r.ok
        assert abs(r.quad - (-np.pi * h)) < 1e-9
        assert abs(r.partial - (-np.pi * h)) < 1e-11


def test_sp_cubic_next_term_bound():
    w = make_weight(CUBIC, maxdeg=26, trust=1.2)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 24))
    for h in (0.1, 0.05):
        r = sp_quadrature_check(pd, case, h, hmax=4)
        assert r.ok
        assert r.next_term > 0
        assert r.error <= 10.0 * r.next_term


def test_sp_expands_each_case_once_per_phase(monkeypatch):
    # every h of a (symbol, hmax) reads one expansion, kept in the phase's memo
    w = make_weight(CUBIC, maxdeg=26, trust=1.2)
    cases = [QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 24)),
             QuadratureCase("xyt", TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 24))]
    rows = [(c, h, k) for h in (0.1, 0.07, 0.05) for c in cases for k in (3, 4)]
    fresh = [sp_quadrature_check(build_phase(w), c, h, hmax=k) for c, h, k in rows]
    expanded = []
    expand = oracle.formal_expansion
    monkeypatch.setattr(oracle, "formal_expansion",
                        lambda pd, terms, hmax: expanded.append(hmax) or expand(pd, terms, hmax))
    pd = build_phase(w)
    assert [sp_quadrature_check(pd, c, h, hmax=k) for c, h, k in rows] == fresh
    assert sorted(expanded) == [3, 3, 4, 4]


def test_sp_contour_reads_symbols_off_its_moments(monkeypatch):
    # the quad of multi-term symbols up to the slow degree is the node sum
    # over the contour's disc within 1e-14 of max(1, |quad|); the phase
    # keeps the contour of one h, so a new h drops the live one
    pd = build_phase(make_weight(CUBIC, maxdeg=26, trust=1.2))
    symbols = [TruncatedSeries.from_triples(
        [((a, b), 1.0, 0.0), ((1, 0), 0.5, 0.0), ((0, 2), 0.0, -0.25)], 2, pd.slow_deg)
        for a, b in ((3, 1), (0, 0), (1, 4), (2, 2), (12, 12), (24, 0), (0, 24))]
    probes = []
    radius = oracle._contour_radius
    monkeypatch.setattr(oracle, "_contour_radius",
                        lambda pd, h: probes.append(h) or radius(pd, h))
    for h in (0.1, 0.05, 0.1):
        for symbol in symbols:
            quad = sp_quadrature_check(pd, QuadratureCase("s", symbol), h, hmax=2).quad
            want = node_sum_quad(pd, symbol, h)[1]
            assert abs(quad - want) <= 1e-14 * max(1.0, abs(quad)), (symbol, h)
        assert pd.memo["sp_contour"][0] == h
    assert probes == [0.1, 0.05, 0.1]


def test_sp_rejects_a_symbol_above_the_slow_degree():
    pd = build_phase(make_weight(QUARTIC, maxdeg=26, trust=1.0))
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, pd.slow_deg + 1))
    with pytest.raises(ConfigInvalid, match="slow degree"):
        sp_quadrature_check(pd, case, 0.1, hmax=2)


def test_sp_rejects_hmax_below_one():
    pd = build_phase(make_weight(QUARTIC, maxdeg=26, trust=1.0))
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 2, 24))
    with pytest.raises(ConfigInvalid, match="hmax"):
        sp_quadrature_check(pd, case, 0.1, hmax=0)


def test_sp_rejects_higher_dimension():
    triples = [((1, 0, 1, 0), 1.0, 0.0), ((0, 1, 0, 1), 1.0, 0.0)]
    s = TruncatedSeries.from_triples(triples, 4, 8)
    w = validate_weight(s, 1.0)
    pd = build_phase(w)
    case = QuadratureCase("one", TruncatedSeries.constant(1.0, 4, 0))
    with pytest.raises(ConfigInvalid):
        sp_quadrature_check(pd, case, 0.1, hmax=6)


# -- localized elements -------------------------------------------------------

def test_localized_gaussian_frozen_values():
    w = make_weight(GAUSS)
    # delta = cmin / 2 = 0.25 is the gap rule's value for the Gaussian
    elem = localized_element(w, 0.1, delta=0.25)
    # theta(x, 0) = -i zbar = 0, jacobian -i, so v_0(0) = -i/(2 pi h)
    v0 = elem.eval(np.array([[0j]]))[0]
    assert abs(v0 - (-1j / (2 * np.pi * 0.1))) < 1e-12
    assert abs(elem.margin - 0.25) < 1e-9
    assert 0 < elem.domination_C < 1.0


def test_localized_domination_fails_with_huge_delta():
    w = make_weight(GAUSS, trust=1.0)
    with pytest.raises(BadContour):
        localized_element(w, 0.1, delta=0.7)
