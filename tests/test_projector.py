import os
import tracemalloc
import warnings

import numpy as np
import pytest

from bergman.amplitude import solve_amplitude
from bergman.cli import RunState, load_config
from bergman import projector
from bergman.errors import ConfigInvalid, DegenerateFit, IllConditioned
from bergman.projector import (KernelEvaluator, apply_projection, assemble_kernel, check_domain,
                               decay_fit, make_domain, projection_table,
                               reproducing_error, table_key, weighted_norm)
from bergman.quadrature import disc_grid
from bergman.series import TruncatedSeries
from bergman.weight import validate_weight
from bergman.phase import build_phase

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]


PRODUCT = [((1, 0, 1, 0), 0.5, 0.0), ((0, 1, 0, 1), 0.5, 0.0),
           ((2, 0, 2, 0), 0.1, 0.0), ((0, 2, 0, 2), 0.05, 0.0)]


def pipeline(triples, order, maxdeg=16, trust=1.2, n=1):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    w = validate_weight(s, trust)
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


N1_PTS = [[0.1 + 0.05j], [0.0j], [0.25j]]
N2_PTS = [[0.1 + 0.05j, -0.1j], [0.0j, 0.0j], [0.25j, 0.15 + 0.0j]]


def projection_setup(triples, n, order, maxdeg):
    w, amp = pipeline(triples, order, maxdeg=maxdeg, trust=1.0, n=n)
    n_radial, n_angular = (24, 48) if n == 1 else (6, 12)
    dom = make_domain((0.7,) * n, n_radial=n_radial, n_angular=n_angular)
    return w, amp, dom


def direct_projection(K, u, w, dom, pts):
    # the integrand summed node by node from K.eval, phi and u
    phiy = w.phi(dom.nodes)
    uy = u.eval_grid(dom.nodes)
    return np.array([(dom.weights * K.eval(np.broadcast_to(x[None, :], dom.nodes.shape), dom.nodes)
                      * np.exp(-2.0 * phiy / K.h) * uy).sum() for x in pts])


@pytest.mark.parametrize("triples, n, order, maxdeg, u, pts", [
    pytest.param(QUARTIC, 1, 4, 26, monomial(2, 6), N1_PTS, id="n1-quartic"),
    pytest.param(PRODUCT, 2, 1, 8,
                 TruncatedSeries.from_triples([((1, 1), 1.0, 0.0)], 2, 4),
                 N2_PTS, id="n2-product"),
])
def test_projection_fast_path_matches_generic(triples, n, order, maxdeg, u, pts):
    # same nodes, same integrand: block-bilinear path must agree with direct sums
    w, amp, dom = projection_setup(triples, n, order, maxdeg)
    K = assemble_kernel(w, amp, 0.1)
    pts = np.array(pts)
    fast = apply_projection(K, u, w, dom, pts)
    assert np.allclose(fast, direct_projection(K, u, w, dom, pts), rtol=1e-12)


def polynomials(nvars, *terms):
    return [TruncatedSeries.from_triples(t, nvars, 6) for t in terms]


@pytest.mark.parametrize("triples, n, order, maxdeg, us, pts", [
    pytest.param(QUARTIC, 1, 4, 26, polynomials(
        1, [((3,), 1.0, 0.0), ((1,), 0.0, 0.5)], [((2,), 1.0, 0.0)],
        [((0,), 1.0, 0.0), ((2,), -0.5, 0.25)], [((4,), 1.0, 0.0)]),
        N1_PTS, id="n1-quartic"),
    pytest.param(PRODUCT, 2, 1, 8, polynomials(
        2, [((1, 1), 1.0, 0.0)], [((1, 0), 1.0, 0.0)],
        [((0, 0), 1.0, 0.0), ((0, 1), 0.0, -2.0)], [((2, 1), 1.0, 0.0)]),
        N2_PTS, id="n2-product"),
])
def test_projection_warm_table_matches_fresh_kernels(triples, n, order, maxdeg, us, pts):
    # One kernel projects every u: the highest degree first, then lower ones
    # from its table, then one above it, which rebuilds the table.  A fresh
    # kernel per u integrates that u alone.
    w, amp, dom = projection_setup(triples, n, order, maxdeg)
    K = assemble_kernel(w, amp, 0.1)
    pts = np.array(pts)
    for u in us:
        warm = apply_projection(K, u, w, dom, pts)
        fresh = apply_projection(assemble_kernel(w, amp, 0.1), u, w, dom, pts)
        assert np.max(np.abs(warm - fresh)) <= 1e-13 * np.max(np.abs(fresh))
        assert np.allclose(warm, direct_projection(K, u, w, dom, pts), rtol=1e-12)
        assert len(K.tables) == 1


@pytest.mark.parametrize("triples, n, order, maxdeg, pts", [
    pytest.param(QUARTIC, 1, 4, 26, N1_PTS, id="n1-quartic"),
    pytest.param(PRODUCT, 2, 1, 8, N2_PTS, id="n2-product"),
])
def test_shared_table_build_matches_single_builds(triples, n, order, maxdeg, pts):
    # orders N and N - 1 at one h share the exponential factor of their tables
    w, amp, dom = projection_setup(triples, n, order, maxdeg)
    amps = (amp, solve_amplitude(build_phase(w), order - 1))
    pts = np.array(pts)
    shared = [assemble_kernel(w, a, 0.1) for a in amps]
    projection_table(shared, dom, pts, 3)
    for a, K in zip(amps, shared):
        alone = assemble_kernel(w, a, 0.1)
        projection_table([alone], dom, pts, 3)
        cols, T = K.tables[table_key(dom, pts)]
        cols_alone, T_alone = alone.tables[table_key(dom, pts)]
        assert cols == cols_alone
        assert np.array_equal(T, T_alone)
        # apply_projection reads the primed table instead of building its own
        u = TruncatedSeries.from_triples([((0,) * (n - 1) + (3,), 1.0, 0.0)], n, 3)
        apply_projection(K, u, w, dom, pts)
        assert len(K.tables) == 1


def test_equal_symbols_share_one_table(monkeypatch):
    # two kernels of one amplitude realize equal symbols: one table serves both
    w, amp, dom = projection_setup(QUARTIC, 1, 4, 26)
    other = solve_amplitude(build_phase(w), 3)
    pts = np.array(N1_PTS)
    kernels = [assemble_kernel(w, a, 0.1) for a in (amp, amp, other)]
    read = []
    table = TruncatedSeries.bilinear_table
    monkeypatch.setattr(TruncatedSeries, "bilinear_table",
                        lambda s: read.append(s) or table(s))
    projection_table(kernels, dom, pts, 3)
    # Psi's factors and each distinct symbol's coefficients read the table once
    assert read == [w.series, kernels[0].symbol.series, kernels[2].symbol.series]
    assert read[1] != read[2]
    key = table_key(dom, pts)
    tables = [K.tables[key][1] for K in kernels]
    assert tables[0] is tables[1] and tables[2] is not tables[0]
    alone = assemble_kernel(w, amp, 0.1)
    projection_table([alone], dom, pts, 3)
    assert np.array_equal(alone.tables[key][1], tables[0])


def test_shared_table_build_needs_one_weight_and_one_h():
    w, amp = pipeline(QUARTIC, 2, maxdeg=16, trust=1.0)
    other, other_amp = pipeline(GAUSS, 2, maxdeg=16, trust=1.0)
    dom = make_domain((0.7,), n_radial=8, n_angular=16)
    pts = np.array(N1_PTS)
    for kernels in ([assemble_kernel(w, amp, 0.1), assemble_kernel(w, amp, 0.2)],
                    [assemble_kernel(w, amp, 0.1), assemble_kernel(other, other_amp, 0.1)]):
        with pytest.raises(ConfigInvalid):
            projection_table(kernels, dom, pts, 1)
        assert all(not K.tables for K in kernels)


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


def test_domain_guards():
    w, _ = pipeline(GAUSS, 2, trust=1.2)
    too_big = make_domain((1.5,))
    with pytest.raises(ConfigInvalid):
        check_domain(too_big, w)
    ok = make_domain((1.0,))
    check_domain(ok, w)


def test_single_radius_domain_is_the_disc_grid():
    dom = make_domain((0.8,), 24, 48)
    nodes, weights = disc_grid(0.8, 24, 48)
    assert np.array_equal(dom.nodes, nodes[:, None])
    assert np.array_equal(dom.weights, weights)


def test_domain_records_the_radial_nodes_it_built():
    # radial_nodes builds at least 4 Gauss nodes per panel
    dom = make_domain((0.7,), n_radial=2, n_angular=4)
    assert dom.n_radial == 4 and dom.nodes.shape[0] == 16


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


def test_projection_rejects_a_foreign_weight():
    # the Gaussian weight beside the quartic kernel used to weight the
    # projection silently: u = x at 0.1 and 0.2i gave 0.1063 and 0.2126i
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    other, _ = pipeline(GAUSS, 1)
    K = assemble_kernel(w, amp, 0.1)
    dom = make_domain((0.7,))
    pts = np.array([[0.1 + 0.0j], [0.2j]])
    with pytest.raises(ConfigInvalid):
        apply_projection(K, monomial(1), other, dom, pts)
    assert not K.tables
    got = apply_projection(K, monomial(1), w, dom, pts)
    assert np.allclose(got, [0.0976, 0.1952j], atol=1e-4)


def test_projection_accepts_an_equal_weight_built_apart():
    # two validations of one config give equal weights, not one object
    cfg = load_config(os.path.join(ROOT, "configs", "perturbed-quartic.json"))
    w_a, w_b = (validate_weight(TruncatedSeries.from_triples(cfg.coefficients, 2, cfg.maxdeg),
                                cfg.trust_radius) for _ in range(2))
    assert w_b is not w_a and w_b == w_a and hash(w_b) == hash(w_a)
    K_a = assemble_kernel(w_a, solve_amplitude(build_phase(w_a), cfg.order), 0.1)
    dom = make_domain((cfg.radius_v,))
    pts = np.array([[0.1 + 0.0j], [0.2j]])
    got = apply_projection(K_a, monomial(1), w_b, dom, pts)
    assert np.array_equal(got, apply_projection(K_a, monomial(1), K_a.w, dom, pts))


def test_reproducing_error_weights_by_the_kernel_weight():
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    other, _ = pipeline(GAUSS, 1)
    K = assemble_kernel(w, amp, 0.1)
    inner = make_domain((0.35,), n_radial=16, n_angular=32)
    outer = make_domain((0.7,), n_radial=48, n_angular=96)
    u = monomial(1)
    proj = apply_projection(K, u, w, outer, inner.nodes)
    want = (weighted_norm(w, proj - u.eval_grid(inner.nodes), inner, 0.1)
            / weighted_norm(w, u.eval_grid(outer.nodes), outer, 0.1))
    assert reproducing_error(K, u, inner, outer) == want
    # no weight can be passed beside the kernel
    with pytest.raises(TypeError):
        reproducing_error(K, u, other, inner, outer)


def test_reproducing_error_norms_each_test_function_once_per_h(monkeypatch):
    # ||u|| over the outer grid depends on (w, u, h), not on the amplitude:
    # the grid keeps it, so two orders' kernels at one h compute it once
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    lower = solve_amplitude(build_phase(w), 3)
    inner = make_domain((0.35,), n_radial=16, n_angular=32)
    outer = make_domain((0.7,), n_radial=48, n_angular=96)
    normed = []
    norm = projector.weighted_norm

    def counted(w, values, dom, h):
        if dom is outer:
            normed.append(h)
        return norm(w, values, dom, h)
    monkeypatch.setattr(projector, "weighted_norm", counted)
    for h in (0.2, 0.1):
        for a in (amp, lower):
            K = assemble_kernel(w, a, h)
            for u in (monomial(1), monomial(2), monomial(1)):
                proj = apply_projection(K, u, w, outer, inner.nodes)
                want = (norm(w, proj - u.eval_grid(inner.nodes), inner, h)
                        / norm(w, u.eval_grid(outer.nodes), outer, h))
                assert reproducing_error(K, u, inner, outer) == want
    assert normed == [0.2, 0.2, 0.1, 0.1]


def test_reproducing_error_decreases_with_h():
    w, amp = pipeline(QUARTIC, 4, maxdeg=26, trust=1.0)
    inner = make_domain((0.35,), n_radial=16, n_angular=32)
    outer = make_domain((0.7,), n_radial=48, n_angular=96)
    errs = []
    for h in (0.2, 0.1, 0.05):
        K = assemble_kernel(w, amp, h)
        errs.append(reproducing_error(K, monomial(1, 6), inner, outer))
    assert errs[0] > errs[1] > errs[2] > 0


def test_reproducing_error_requires_nested_domains():
    w, amp = pipeline(GAUSS, 2)
    K = assemble_kernel(w, amp, 0.1)
    inner = make_domain((1.0,))
    outer = make_domain((0.5,))
    with pytest.raises(ConfigInvalid):
        reproducing_error(K, monomial(0, 2), inner, outer)


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


def canonical(name):
    return RunState(load_config(os.path.join(ROOT, "configs", f"{name}.json")))


def row_summed(K, d, xd, degree):
    # the table in row chunks too small for a circle, so every row is summed
    parts = []
    for lo in range(0, xd.shape[0], 128):
        alone = KernelEvaluator(K.w, K.symbol, K.h)
        projection_table([alone], d, xd[lo:lo + 128], degree)
        parts.append(alone.tables[table_key(d, xd[lo:lo + 128])][1])
    return np.concatenate(parts)


def circle_outcomes(monkeypatch):
    # whether each circle projection_table reads off was accepted
    outcomes = []
    read = projector._from_circle

    def recorded(*args):
        Ts = read(*args)
        outcomes.append(Ts is not None)
        return Ts
    monkeypatch.setattr(projector, "_from_circle", recorded)
    return outcomes


@pytest.mark.parametrize("name", ["gaussian", "quadratic-lambda", "perturbed-quartic",
                                  "nonradial-quartic"])
def test_table_from_the_circle_matches_row_sums(monkeypatch, name):
    # the inner grid's 1152 rows read off a 32-point circle at every
    # canonical h agree with their direct sums to rounding
    st = canonical(name)
    d, xd = st.outer, st.inner.nodes
    degree = max(sum(t) for t in st.cfg.test_functions)
    picked = np.linspace(0, xd.shape[0] - 1, 20).astype(int)
    outcomes = circle_outcomes(monkeypatch)
    for h in st.cfg.h_grid:
        K = assemble_kernel(st.w, st.amp, h)
        projection_table([K], d, xd, degree)
        cols, T = K.tables[table_key(d, xd)]
        ref = row_summed(K, d, xd, degree)
        assert np.max(np.abs(T - ref)) <= 1e-14 * np.max(np.abs(ref)), h
        # u = 1 + y + ... + y^degree reads every column; the bound is
        # relative to the peak, since near the origin the row sums
        # themselves miss y^3's projection by 2e-10 relative
        u = TruncatedSeries.from_triples([(t, 1.0, 0.0) for t in cols], 1, degree)
        direct = direct_projection(K, u, st.w, d, xd[picked])
        miss = np.abs(T[picked] @ np.ones(len(cols)) / h - direct)
        assert np.all(miss <= 1e-12 * np.abs(direct).max()), h
    assert outcomes == [True] * len(st.cfg.h_grid)


@pytest.mark.parametrize("name, h", [("quadratic-lambda", 0.002), ("gaussian", 0.01),
                                     ("product-2d", 0.1)])
def test_declined_circle_leaves_the_row_sums(monkeypatch, name, h):
    # the circle fails the guard (or is not tried in two variables): the
    # table is the direct row sum, bit for bit
    st = canonical(name)
    d, xd = st.outer, st.inner.nodes
    outcomes = circle_outcomes(monkeypatch)
    K = assemble_kernel(st.w, st.amp, h)
    projection_table([K], d, xd, 3)
    assert np.array_equal(K.tables[table_key(d, xd)][1], row_summed(K, d, xd, 3))
    assert outcomes == ([False] if st.cfg.dimension == 1 else [])


@pytest.mark.parametrize("name, h, circle", [
    pytest.param("perturbed-quartic", 0.05, [True] * 3, id="circle"),
    pytest.param("gaussian", 0.01, [False] * 3, id="declined-circle"),
    pytest.param("product-2d", 0.1, [], id="two-variables"),
])
def test_tables_do_not_depend_on_the_block_size(monkeypatch, name, h, circle):
    # on the circle, with the circle declined, and on the rows of two
    # variables, each block size gives the same table, bit for bit
    st = canonical(name)
    d, xd = st.outer, st.inner.nodes
    outcomes = circle_outcomes(monkeypatch)
    tables = []
    for block in (2 ** 16, 2 ** 17, 2 ** 18):
        monkeypatch.setattr(projector, "BLOCK_ELEMENTS", block)
        K = assemble_kernel(st.w, st.amp, h)
        projection_table([K], d, xd, 3)
        tables.append(K.tables[table_key(d, xd)][1])
    assert all(np.array_equal(T, tables[0]) for T in tables[1:])
    assert outcomes == circle


@pytest.mark.parametrize("name", ["product-2d", "perturbed-quartic"])
def test_table_build_peak_memory(name):
    # one build for both orders at h = 0.1 keeps one exponent buffer
    # (2 MiB) and the moments of a few rows; a build that formed each
    # symbol's node-side factor and a product buffer peaked at 6.95 MiB
    # (product-2d) and 9.28 MiB (perturbed-quartic)
    st = canonical(name)
    kernels = [assemble_kernel(st.w, a, 0.1)
               for a in (st.amp, solve_amplitude(st.pd, st.cfg.order - 1))]
    degree = max(sum(t) for t in st.cfg.test_functions)
    st.outer.phi(st.w)
    tracemalloc.start()
    try:
        projection_table(kernels, st.outer, st.inner.nodes, degree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak


def test_no_circle_in_two_variables(monkeypatch):
    # more rows than a 32 x 32 torus needs still sum every row in n = 2
    w, amp = pipeline(PRODUCT, 1, maxdeg=8, trust=1.0, n=2)
    dom = make_domain((0.7, 0.7), n_radial=2, n_angular=4)
    rng = np.random.default_rng(5)
    xd = 0.3 * (rng.standard_normal((4200, 2)) + 1j * rng.standard_normal((4200, 2)))
    outcomes = circle_outcomes(monkeypatch)
    K = assemble_kernel(w, amp, 0.1)
    projection_table([K], dom, xd, 2)
    assert outcomes == []
    assert np.array_equal(K.tables[table_key(dom, xd)][1], row_summed(K, dom, xd, 2))


def test_table_out_of_the_double_range_raises():
    # e^{(2/h)(Psi - phi)} overflows at this h: neither the circle nor a row sum is finite
    st = canonical("quadratic-lambda")
    K = assemble_kernel(st.w, st.amp, 1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned):
            projection_table([K], st.outer, st.inner.nodes, 3)
    assert not K.tables
