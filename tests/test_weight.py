import numpy as np
import pytest

from bergman.errors import ConfigInvalid, Degenerate, NotRealValued
from bergman.series import TruncatedSeries
from bergman.weight import levi_form, quadratic_gap_estimate, validate_weight

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]


def make_weight(triples, n=1, maxdeg=12, base=None, trust=1.0):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    return validate_weight(s, base if base is not None else [0j] * n, trust)


def test_gaussian_weight_basics():
    w = make_weight(GAUSS)
    assert w.n == 1
    pts = np.array([[0.3 + 0.4j]])
    # phi = |x|^2 / 2
    assert np.allclose(w.phi(pts), 0.125)


def test_phi_is_real_on_samples():
    w = make_weight(QUARTIC)
    rng = np.random.default_rng(0)
    pts = 0.5 * (rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1)))
    vals = w.phi(pts)
    assert np.all(np.isreal(vals))


def test_hermitian_symmetry_enforced():
    # x^2 with no conjugate partner cannot be a real-valued series
    with pytest.raises(NotRealValued):
        make_weight([((1, 1), 0.5, 0.0), ((2, 0), 0.3, 0.0)])
    # paired holomorphic + antiholomorphic terms are fine
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 0), 0.15, 0.0), ((0, 2), 0.15, 0.0)])
    assert w.n == 1


def test_hermitian_symmetry_complex_pairing():
    # c[b,a] must equal conj(c[a,b])
    with pytest.raises(NotRealValued):
        make_weight([((1, 1), 0.5, 0.0), ((2, 1), 0.1, 0.2), ((1, 2), 0.1, 0.2)])
    w = make_weight([((1, 1), 0.5, 0.0), ((2, 1), 0.1, 0.2), ((1, 2), 0.1, -0.2)])
    assert w.n == 1


def test_levi_positivity_required():
    with pytest.raises(Degenerate):
        make_weight([((1, 1), -0.5, 0.0)])
    with pytest.raises(Degenerate):
        make_weight([((1, 1), 0.0, 0.0), ((2, 2), 0.1, 0.0)])


def test_trust_radius_positive():
    s = TruncatedSeries.from_triples(GAUSS, 2, 8)
    with pytest.raises(ConfigInvalid):
        validate_weight(s, [0j], 0.0)


def test_levi_form_two_dim_cross_terms():
    # phi = |x1|^2 + |x2|^2 + Re(x1 conj(x2)); Levi = [[1, .5], [.5, 1]]
    triples = [((1, 0, 1, 0), 1.0, 0.0), ((0, 1, 0, 1), 1.0, 0.0),
               ((1, 0, 0, 1), 0.5, 0.0), ((0, 1, 1, 0), 0.5, 0.0)]
    w = make_weight(triples, n=2, maxdeg=8)
    L = levi_form(w, w.base)
    assert np.allclose(L, [[1.0, 0.5], [0.5, 1.0]])
    assert np.all(np.linalg.eigvalsh(L) > 0)


def test_levi_form_matches_finite_differences():
    w = make_weight(QUARTIC + [((2, 1), 0.05, 0.02), ((1, 2), 0.05, -0.02)])
    x0 = np.array([0.17 - 0.23j])
    L = levi_form(w, x0)
    eps = 1e-5

    def phi(z):
        return float(w.phi(np.array([[z]]))[0])

    z = complex(x0[0])
    # d^2 phi / dx dxbar via the 4-point Laplacian stencil / 4
    lap = (phi(z + eps) + phi(z - eps) + phi(z + 1j * eps) + phi(z - 1j * eps)
           - 4 * phi(z)) / (eps ** 2)
    assert abs(L[0, 0] - lap / 4.0) < 1e-6


def test_polarization_restricts_to_phi():
    w = make_weight(QUARTIC, trust=1.0)
    rng = np.random.default_rng(1)
    xs = 0.4 * (rng.standard_normal((25, 1)) + 1j * rng.standard_normal((25, 1)))
    diag = w.psi(xs, np.conj(xs))
    assert np.allclose(diag.real, w.phi(xs), atol=1e-12)
    assert np.max(np.abs(diag.imag)) < 1e-12


def test_polarization_hermitian_symmetry():
    w = make_weight(QUARTIC + [((2, 1), 0.05, 0.02), ((1, 2), 0.05, -0.02)])
    rng = np.random.default_rng(2)
    xs = 0.3 * (rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1)))
    ys = 0.3 * (rng.standard_normal((10, 1)) + 1j * rng.standard_normal((10, 1)))
    a = w.psi(xs, np.conj(ys))
    b = w.psi(ys, np.conj(xs))
    assert np.allclose(np.conj(a), b, atol=1e-12)


def test_quadratic_gap_gaussian():
    w = make_weight(GAUSS, trust=1.2)
    cmin, cmax = quadratic_gap_estimate(w, 0.6)
    # phi(x)+phi(y)-2RePsi(x,ybar) = 0.5|x-y|^2 exactly
    assert abs(cmin - 0.5) < 1e-9
    assert abs(cmax - 0.5) < 1e-9


def test_quadratic_gap_scales_with_lambda():
    w = make_weight([((1, 1), 2.0, 0.0)], trust=1.2)
    cmin, cmax = quadratic_gap_estimate(w, 0.6)
    assert abs(cmin - 2.0) < 1e-9
    assert abs(cmax - 2.0) < 1e-9


def test_quadratic_gap_perturbed_regression():
    w = make_weight(QUARTIC, trust=1.0)
    cmin, cmax = quadratic_gap_estimate(w, 0.5, seed=0)
    assert 0 < cmin <= cmax
    # quartic term only helps: the gap stays above the quadratic floor
    assert cmin > 0.49
    assert cmax < 1.0


def test_gap_estimate_deterministic():
    w = make_weight(QUARTIC, trust=1.0)
    assert quadratic_gap_estimate(w, 0.5, seed=3) == \
        quadratic_gap_estimate(w, 0.5, seed=3)
