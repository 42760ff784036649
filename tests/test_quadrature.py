import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

from bergman import quadrature
from bergman.cli import load_config
from bergman.errors import ConfigInvalid
from bergman.projector import make_domain
from bergman.quadrature import (SOBOL_DIMS, disc_grid, polar_moments, polydisc_grid, sobol,
                                sobol_ball)
from bergman.series import TruncatedSeries, _block_monomials, _monomial_table
from bergman.weight import quadratic_gap_estimate, validate_weight

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 1710, 1711])
def test_sobol_matches_scipy_bit_for_bit(seed):
    for d in range(1, SOBOL_DIMS + 1):
        for m in (0, 1, 10, 14):
            ref = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)
            assert same_bits(sobol(d, m, seed), ref), (d, m)


def test_sobol_dimension_outside_the_table():
    for d in (0, SOBOL_DIMS + 1):
        with pytest.raises(ConfigInvalid, match="embedded"):
            sobol(d, 3)


def test_sobol_ball_matches_the_scipy_engine(monkeypatch):
    # the engine returns a transposed array; sobol_ball's values must not
    # depend on that layout at any dimension the table covers
    counts = {1: 1000, 2: 1000, 3: 100, 4: 32}
    assert 2 * max(counts) == SOBOL_DIMS
    ours = {nv: sobol_ball(nv, 0.3, k, seed=7) for nv, k in counts.items()}
    monkeypatch.setattr(quadrature, "sobol", lambda d, m, seed: qmc.Sobol(
        d, scramble=True, seed=seed).random_base2(m))
    for nv, k in counts.items():
        assert same_bits(ours[nv], sobol_ball(nv, 0.3, k, seed=7)), nv


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
def test_sobol_ball_is_uniform_on_the_ball(nv):
    # moments of the uniform ball in C^nv: E|z|^2 = r^2 nv/(nv+1),
    # E|z_j|^2 = r^2/(nv+1), E z_j = 0.  3000 points (not a power of 2)
    # meet the second moments to 4.3e-4 relative and the mean to 6.9e-4 r
    # at seed 3; the bounds are 1e-3 and 2e-3 r
    r, k = 0.7, 3000
    z = sobol_ball(nv, r, k, seed=3)
    assert z.shape == (k, nv)
    abs2 = np.abs(z) ** 2
    assert abs2.sum(axis=1).max() <= r * r
    assert abs2.sum(axis=1).mean() == pytest.approx(r * r * nv / (nv + 1), rel=1e-3)
    assert abs2.mean(axis=0) == pytest.approx(np.full(nv, r * r / (nv + 1)), rel=1e-3)
    assert np.abs(z.mean(axis=0)).max() < 2e-3 * r


@pytest.mark.parametrize("radii,n_radial,n_angular", [
    ((0.8,), 12, 40), ((0.8,), 3, 24), ((0.8, 0.6), 5, 20)])
def test_polar_moments_are_the_node_sums(radii, n_radial, n_angular):
    # H[s + t, t - s] is sum_j f_j conj(y_j^s) y_j^t for every pair of a
    # degree-8 basis, within 1e-13 of sum_j |f_j| |y_j|^(s + t); three
    # radial nodes are four on the grid (radial_nodes' floor)
    n, degree = len(radii), 8
    dom = make_domain(radii, n_radial, n_angular)
    rng = np.random.default_rng(n_angular)
    f = rng.standard_normal(dom.weights.size) + 1j * rng.standard_normal(dom.weights.size)
    H = polar_moments(f, dom.radii, dom.n_radial, dom.n_angular, 2 * degree, (-degree, degree))
    basis = list(_block_monomials(n, degree))
    V = _monomial_table(dom.nodes, basis)
    direct = V.conj().T @ (f[:, None] * V)
    bound = np.abs(V).T @ (np.abs(f)[:, None] * np.abs(V))
    S = np.array(basis)
    got = H[tuple(i for j in range(n) for i in (S[:, None, j] + S[None, :, j],
                                               S[None, :, j] - S[:, None, j]))]
    assert (np.abs(got - direct) / bound).max() <= 1e-13


@pytest.mark.parametrize("radii,n_radial,n_angular,powers,freqs", [
    ((0.8,), 12, 40, 9, (-6, 3)), ((0.8, 0.6), 4, 12, 4, (-3, 2))])
def test_polar_moments_of_a_batch_are_the_node_sums(radii, n_radial, n_angular, powers, freqs):
    # each measure of a (3, 2) batch, at every power 0..powers and frequency
    # lo..hi (a negative one read at its negative index), is the plain sum
    # of f r^p e^{ik theta} over the nodes of disc_grid or polydisc_grid,
    # within 1e-13 of the sum of |f| r^p
    if len(radii) == 1:
        nodes = disc_grid(radii[0], n_radial, n_angular)[0][:, None]
    else:
        nodes = polydisc_grid(radii, n_radial, n_angular)[0]
    rng = np.random.default_rng(len(radii))
    f = rng.standard_normal((3, 2, len(nodes))) + 1j * rng.standard_normal((3, 2, len(nodes)))
    H = polar_moments(f, radii, n_radial, n_angular, powers, freqs)
    ps, ks = np.arange(powers + 1), np.arange(freqs[0], freqs[1] + 1)
    # r^p e^{ik theta} of each variable at the nodes, shape (nodes, p, k)
    waves = [np.abs(y)[:, None, None] ** ps[:, None] * np.exp(1j * np.angle(y)[:, None, None] * ks)
             for y in nodes.T]
    sums = "abj," + ",".join(f"j{p}{k}" for p, k in ("pk", "ql")[:len(radii)])
    sums += "->ab" + "".join(("pk", "ql")[:len(radii)])
    direct = np.einsum(sums, f, *waves, optimize=True)
    bound = np.einsum(sums, np.abs(f), *map(np.abs, waves), optimize=True)
    got = H[(slice(None),) * 2 + np.ix_(*(ps, ks) * len(radii))]
    assert (np.abs(got - direct) / bound).max() <= 1e-13


def test_gap_estimate_draws_one_block(monkeypatch):
    # product-2d's gap sample, 4096 points in 4n = 8 real dimensions, is
    # one 2^12-point block
    cfg = load_config(os.path.join(ROOT, "configs", "product-2d.json"))
    w = validate_weight(TruncatedSeries.from_triples(cfg.coefficients, 4, cfg.maxdeg),
                        cfg.trust_radius)
    draws = []
    engine = quadrature.sobol
    monkeypatch.setattr(quadrature, "sobol",
                        lambda d, m, seed: draws.append((d, m)) or engine(d, m, seed))
    quadratic_gap_estimate(w, 0.5 * cfg.trust_radius, seed=cfg.seed)
    assert draws == [(8, 12)]


def test_importing_the_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import sys, bergman.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
