import numpy as np
import pytest

from bergman.amplitude import (estimate_growth, formal_expansion, realize,
                               solve_amplitude)
from bergman.errors import InsufficientDegree
from bergman.series import TruncatedSeries, max_abs_diff
from bergman.weight import validate_weight
from bergman.phase import build_phase

GAUSS = [((1, 1), 0.5, 0.0)]
QUARTIC = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]
CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.05, 0.0), ((1, 2), 0.05, 0.0)]


def make_phase(triples, n=1, maxdeg=16, trust=1.0):
    s = TruncatedSeries.from_triples(triples, 2 * n, maxdeg)
    return build_phase(validate_weight(s, [0j] * n, trust))


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
        assert max_abs_diff(a, ref) <= 1e-12 * a.max_abs(), k


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


def test_expansion_balance_prunes_to_diagonal_orders():
    # for a radial weight the odd h-coefficients of the constant symbol are
    # even functions; the h^j coefficient has only balanced monomials
    pd = make_phase(QUARTIC, maxdeg=20)
    u = TruncatedSeries.constant(1.0, 2, 18)
    terms = formal_expansion(pd, [u], 3)
    for j in range(4):
        for mi, c in terms[j].coeffs.items():
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
    assert r.h == 0.1
    # realized symbol at the origin is the partial sum of the h-series
    vals = [amp.coeffs[k].constant_term for k in range(r.cutoff + 1)]
    want = sum(v * 0.1 ** k for k, v in enumerate(vals))
    got = r.series.constant_term if hasattr(r, "series") else None
    if got is not None:
        assert abs(got - want) < 1e-13


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
