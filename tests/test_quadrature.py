import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

from bergman import quadrature
from bergman.errors import ConfigInvalid
from bergman.quadrature import SOBOL_DIMS, Sobol, sobol_ball

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", [0, 1, 1710, 1711])
def test_sobol_matches_scipy_bit_for_bit(seed):
    # sobol_ball's draw sequence: 2^k points first, then one doubling per draw
    for d in range(1, SOBOL_DIMS + 1):
        ours, ref = Sobol(d, seed=seed), qmc.Sobol(d, scramble=True, seed=seed)
        for m in (10, 10, 11, 12):
            assert same_bits(ours.random_base2(m), ref.random_base2(m)), (d, m)


def test_sobol_draws_keep_a_power_of_two_total():
    eng = Sobol(2, seed=0)
    eng.random_base2(3)
    with pytest.raises(ValueError, match="power of 2"):
        eng.random_base2(2)
    for d in (0, SOBOL_DIMS + 1):
        with pytest.raises(ConfigInvalid, match="embedded"):
            Sobol(d)


def test_sobol_ball_matches_the_scipy_engine(monkeypatch):
    # the engine returns a transposed array; sobol_ball's values must not
    # depend on that layout at any dimension the table covers
    counts = {1: 1000, 2: 1000, 3: 100, 4: 32}
    assert 2 * max(counts) == SOBOL_DIMS
    ours = {nv: sobol_ball(nv, 0.3, k, seed=7) for nv, k in counts.items()}
    monkeypatch.setattr(quadrature, "Sobol",
                        lambda d, seed: qmc.Sobol(d, scramble=True, seed=seed))
    for nv, k in counts.items():
        assert same_bits(ours[nv], sobol_ball(nv, 0.3, k, seed=7)), nv


def test_importing_the_cli_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import sys, bergman.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
