"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers, bypassing
capture so a plain ``pytest tests/test_acceptance.py`` doubles as the
acceptance report.  Criterion 8 is a soft check: violations of the growth
band are reported in the line but do not fail the run.
"""
import numpy as np
import pytest

from bergman.amplitude import (estimate_growth, formal_expansion,
                               solve_amplitude)
from bergman.errors import BergmanError
from bergman.oracle import (QuadratureCase, compare_kernels,
                            fourier_inversion_check, gram_bergman,
                            inequality_suite, near_diagonal_pairs,
                            sp_quadrature_check)
from bergman.phase import (build_good_contour, build_phase, inversion_margin,
                           verify_contour)
from bergman.projector import assemble_kernel, decay_fit, make_domain
from bergman.series import TruncatedSeries
from bergman.weight import quadratic_gap_estimate, validate_weight

H_GRID = (0.2, 0.15, 0.1, 0.07, 0.05)

GAUSSIAN = [((1, 1), 0.5, 0.0)]
LAMBDA1 = [((1, 1), 1.0, 0.0)]
PERTURBED = [((1, 1), 0.5, 0.0), ((2, 2), 0.1, 0.0)]
CUBIC = [((1, 1), 0.5, 0.0), ((2, 1), 0.02, 0.0), ((1, 2), 0.02, 0.0)]

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _emit(line):
    if _CAPSYS is None:
        print(line)
    else:
        with _CAPSYS.disabled():
            print(line)


def check(num, label, ok, detail):
    _emit(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def build(triples, maxdeg, trust):
    series = TruncatedSeries.from_triples(list(triples), 2, maxdeg)
    w = validate_weight(series, [0.0], trust)
    return w, build_phase(w)


@pytest.fixture(scope="module")
def gaussian_core():
    return build(GAUSSIAN, 16, 1.2)


@pytest.fixture(scope="module")
def gaussian_amp(gaussian_core):
    return solve_amplitude(gaussian_core[1], 6)


@pytest.fixture(scope="module")
def lambda1_core():
    return build(LAMBDA1, 16, 1.2)


@pytest.fixture(scope="module")
def perturbed_core():
    return build(PERTURBED, 26, 1.0)


@pytest.fixture(scope="module")
def perturbed_amps(perturbed_core):
    pd = perturbed_core[1]
    return {N: solve_amplitude(pd, N) for N in (3, 4)}


@pytest.fixture(scope="module")
def perturbed_grams(perturbed_core):
    w = perturbed_core[0]
    dom = make_domain(0.7, 64, 128)
    out = {}
    for h in H_GRID:
        out[h] = gram_bergman(w, dom, h, 25)
    return out


def _disc_samples(rng, radius, count):
    r = radius * np.sqrt(rng.uniform(size=count))
    t = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return (r * np.exp(1j * t))[:, None]


def test_criterion_1_gaussian_exactness(gaussian_core, gaussian_amp):
    w = gaussian_core[0]
    amp = gaussian_amp
    a0_err = abs(amp.coeffs[0].constant_term - 1.0 / np.pi)
    tail = max(amp.coeffs[k].max_abs() for k in range(1, 7))
    rng = np.random.default_rng(11)
    x = _disc_samples(rng, 0.5, 100)
    y = _disc_samples(rng, 0.5, 100)
    worst = 0.0
    for h in H_GRID:
        K = assemble_kernel(w, amp, h)
        exact = np.exp(x[:, 0] * np.conj(y[:, 0]) / h) / (np.pi * h)
        rel = np.abs(K.eval(x, y) - exact) / np.abs(exact)
        worst = max(worst, float(rel.max()))
    ok = a0_err < 1e-12 and tail < 1e-10 and worst < 1e-10
    check(1, "gaussian exactness", ok,
          f"|a0 - 1/pi| = {a0_err:.2e}, sup|a_k| k=1..6 = {tail:.2e}, "
          f"worst kernel rel err over 100 pairs x h-grid = {worst:.2e}")


def test_criterion_2_quadratic_family():
    parts, ok = [], True
    for lam in (0.5, 1.0, 2.0):
        w, pd = build([((1, 1), lam, 0.0)], 12, 1.2)
        amp = solve_amplitude(pd, 3)
        c_err = abs(amp.coeffs[0].constant_term - 2.0 * lam / np.pi)
        dom = make_domain(1.0, 64, 128)
        gram = gram_bergman(w, dom, 0.1, 30)
        K = assemble_kernel(w, amp, 0.1)
        zero = np.zeros((1, 1), dtype=complex)
        kv, gv = K.eval(zero, zero)[0], gram.eval(zero, zero)[0]
        o_err = abs(kv - gv) / abs(kv)
        ok = ok and c_err < 1e-10 and o_err < 1e-3
        parts.append(f"lambda={lam}: |a0 - 2l/pi|={c_err:.1e}, "
                     f"origin rel err vs D=30 gram={o_err:.1e}")
    check(2, "quadratic family", ok, "; ".join(parts))


def test_criterion_3_perturbed_kernel_decay(perturbed_core, perturbed_amps,
                                            perturbed_grams):
    w = perturbed_core[0]
    x, y = near_diagonal_pairs(0.3 * 0.35, 20)
    errs = {N: [] for N in (3, 4)}
    for h in H_GRID:
        for N in (3, 4):
            K = assemble_kernel(w, perturbed_amps[N], h)
            errs[N].append(compare_kernels(K, perturbed_grams[h], x, y).max_rel)
    e4, e3 = errs[4], errs[3]
    mono = all(a > b for a, b in zip(e4, e4[1:]))
    fit = decay_fit(list(zip(H_GRID, e4)))
    ratios = [a / b for a, b in zip(e4, e3)]
    qs = [(ratios[i + 1] / ratios[i]) / (H_GRID[i + 1] / H_GRID[i])
          for i in range(len(H_GRID) - 1)]
    scaled = all(1.0 / 3.0 <= q <= 3.0 for q in qs)
    ok = mono and fit.beta > 0 and fit.r2 >= 0.9 and scaled
    check(3, "perturbed kernel decay", ok,
          f"N=4 errs {['%.2e' % e for e in e4]} monotone={mono}, "
          f"beta={fit.beta:.3f}, r2={fit.r2:.4f}, "
          f"N4/N3 h-scaling q={['%.2f' % q for q in qs]} within [1/3, 3]={scaled}")


def test_criterion_4_pluriharmonic_gauge_invariance():
    _, pd = build(PERTURBED, 20, 1.0)
    base = solve_amplitude(pd, 3)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        gauge = list(PERTURBED)
        for a, ca in enumerate(c, start=1):
            gauge.append(((a, 0), ca.real / 2, ca.imag / 2))
            gauge.append(((0, a), ca.real / 2, -ca.imag / 2))
        _, pdg = build(gauge, 20, 1.0)
        shifted = solve_amplitude(pdg, 3)
        for k in range(4):
            worst = max(worst, (base.coeffs[k] - shifted.coeffs[k]).max_abs())
    ok = worst < 1e-12
    check(4, "pluriharmonic gauge invariance", ok,
          f"worst coefficient drift over 5 random holomorphic cubics = {worst:.2e}")


def test_criterion_5_stationary_phase_vs_quadrature(gaussian_core):
    pd = gaussian_core[1]
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2),
             (2, 2), (3, 2), (3, 3), (4, 4)]

    def cases(pd, terminating):
        # symbols at the phase's slow degree, the most the expansion can use
        return [QuadratureCase(
            f"x^{a}yt^{b}",
            TruncatedSeries.from_triples([((a, b), 1.0, 0.0)], 2, pd.maxdeg - 2),
            terminating) for a, b in pairs]

    rows_t = sp_quadrature_check(pd, cases(pd, True), H_GRID)
    worst_t = max(r.error / max(1.0, abs(r.partial)) for r in rows_t)
    term_ok = all(r.ok for r in rows_t) and worst_t < 1e-8

    # hmax 4 needs 6 * 4 degrees below the slow degree 24
    _, cpd = build(CUBIC, 26, 1.2)
    rows_n = sp_quadrature_check(cpd, cases(cpd, False), H_GRID, hmax=4)
    nt_ok = all(r.ok and r.next_term > 0 for r in rows_n)
    worst_n = max(r.error / r.next_term for r in rows_n)
    ok = term_ok and nt_ok
    check(5, "stationary phase vs quadrature", ok,
          f"terminating: {len(rows_t)} rows, worst err = {worst_t:.2e}; "
          f"non-terminating: 10 cases x {len(H_GRID)} h, "
          f"worst err/next_term = {worst_n:.2f} (bound 10)")


def test_criterion_6_contour_margins(gaussian_core, lambda1_core,
                                     perturbed_core):
    weights = [("gaussian", gaussian_core, 1.2),
               ("quadratic-lambda", lambda1_core, 1.2),
               ("perturbed-quartic", perturbed_core, 1.0)]
    parts, ok = [], True
    for name, (w, pd), trust in weights:
        radius = 0.3 * trust
        try:
            m_amp = verify_contour(pd, build_good_contour(pd), radius,
                                   n_samples=10_000, seed=0)
            m_inv = inversion_margin(w, [0.0], radius, n_samples=10_000, seed=0)
            cmin, _ = quadratic_gap_estimate(w, 0.5 * trust, n_samples=4096, seed=0)
            suite = inequality_suite(w, np.zeros(1, dtype=complex), 0.5 * cmin,
                                     radius, n_samples=10_000, seed=0)
            ms = (m_amp, m_inv, suite.theta_margin, suite.gz_margin)
            ok = ok and all(m >= 1e-3 for m in ms)
            parts.append(f"{name}: quad-decay={m_amp:.3f} theta={m_inv:.3f} "
                         f"pairing={suite.theta_margin:.3f} gz={suite.gz_margin:.3f}")
        except BergmanError as exc:
            ok = False
            parts.append(f"{name}: {type(exc).__name__}: {exc}")
    check(6, "contour margins >= 1e-3 at 0.3 x trust", ok, "; ".join(parts))


def test_criterion_7_fourier_inversion(gaussian_core):
    w = gaussian_core[0]
    parts, ok = [], True
    for k in range(4):
        u = TruncatedSeries.from_triples([((k,), 1.0, 0.0)], 1, 3)
        res = [chk.residual
               for chk in fourier_inversion_check(w, u, [0.0], 1.0, 96, 192, H_GRID)]
        if max(res) < 1e-12:
            # already below any fit floor at every h; nothing left to decay
            parts.append(f"y^{k}: at machine floor ({max(res):.1e})")
            continue
        fit = decay_fit(list(zip(H_GRID, res)))
        good = fit.beta > 0 and fit.r2 >= 0.9
        ok = ok and good
        parts.append(f"y^{k}: beta={fit.beta:.3f} r2={fit.r2:.3f}")
    check(7, "fourier inversion residual decay", ok, "; ".join(parts))


def test_criterion_8_symbol_growth_band():
    # order 8 needs maxdeg 6 * 8 + 2
    amp = solve_amplitude(build(PERTURBED, 50, 1.0)[1], 8)
    estimate_growth(amp, 0.35, seed=0)
    prof = np.asarray(amp.growth_profile, dtype=float)
    med = float(np.median(prof))
    lo, hi = float(prof.min()), float(prof.max())
    in_band = lo >= med / 2.0 and hi <= 2.0 * med
    verdict = "PASS" if in_band else "SOFT FAIL"
    _emit(f"[{verdict}] criterion 8 (symbol growth band, soft): normalized "
          f"profile (sup|a_k|/k^k)^(1/(k+1)) for k=0..8: min={lo:.3f} "
          f"median={med:.3f} max={hi:.3f}, factor-2 band "
          f"[{med / 2.0:.3f}, {2.0 * med:.3f}], within={in_band}")
    # soft criterion: band violations are reported above, not fatal
    assert prof.size == 9 and np.all(np.isfinite(prof)) and np.all(prof >= 0)


def test_criterion_9_formal_defining_equation(gaussian_core, gaussian_amp,
                                              lambda1_core, perturbed_core,
                                              perturbed_amps):
    runs = [("gaussian", gaussian_core[1], gaussian_amp, 6),
            ("quadratic-lambda", lambda1_core[1],
             solve_amplitude(lambda1_core[1], 6), 6),
            ("perturbed-quartic", perturbed_core[1], perturbed_amps[4], 4)]
    parts, ok = [], True
    for name, pd, amp, N in runs:
        terms = formal_expansion(pd, amp.coeffs, N)
        one = TruncatedSeries.constant(1.0, 2, terms[0].maxdeg)
        d0 = (terms[0] - one).max_abs()
        tail = max(terms[j].max_abs() for j in range(1, N + 1))
        good = d0 < 1e-10 and tail < 1e-10
        ok = ok and good
        parts.append(f"{name}: |order0 - 1|={d0:.1e}, sup h^1..h^{N}={tail:.1e}")
    check(9, "formal defining equation", ok, "; ".join(parts))
