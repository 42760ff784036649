"""Workload inputs, generated from a seed.

Every config is built here rather than read from ``configs/``, so that no
file outside the benchmark can change what a workload runs.  The seed sets
each config's sampling seed (Sobol draws in validation, growth estimation
and the inequality probes) and, for ``dense-amplitude``, the weight's
coefficients.  The amount of work does not depend on the seed.

Every generated amplitude order N comes with ``maxdeg = 6N + 2``, the degree
at which a_N(0) has converged for generic weights, so that the inputs stay
valid if the config validator's degree budget is tightened to that rule.
"""

from __future__ import annotations

import math
import random

H_GRID = [0.2, 0.15, 0.1, 0.07, 0.05]
ALL_SUITES = ["validate", "amplitude", "kernel", "verify"]


def _maxdeg(order: int) -> int:
    return 6 * order + 2


def _coeff(exponents, re, im=0.0) -> dict:
    return {"exponents": list(exponents), "re": float(re), "im": float(im)}


def _canonical(name: str, seed: int, suites: list) -> dict:
    """The three canonical n = 1 weights of configs/*.json, at maxdeg 6N + 2."""
    if name == "perturbed-quartic":
        coeffs = [_coeff((1, 1), 0.5), _coeff((2, 2), 0.1)]
        trust, order, ru, rv, gram = 1.0, 4, 0.35, 0.7, 25
    elif name == "gaussian":
        coeffs = [_coeff((1, 1), 0.5)]
        trust, order, ru, rv, gram = 1.2, 6, 0.5, 1.0, 25
    elif name == "quadratic-lambda":
        coeffs = [_coeff((1, 1), 1.0)]
        trust, order, ru, rv, gram = 1.2, 6, 0.5, 1.0, 30
    else:
        raise KeyError(name)
    return {"name": name, "dimension": 1, "coefficients": coeffs,
            "trust_radius": trust, "maxdeg": _maxdeg(order), "order": order, "hmax": 4,
            "h_grid": H_GRID, "radius_u": ru, "radius_v": rv,
            "gram_degree": gram, "seed": seed, "suites": suites,
            "test_functions": [[0], [1], [2], [3]]}


def _dense(seed: int) -> dict:
    """|x|^2/2 + sum c_ab x^a conj(x)^b, 1 <= a, b, 3 <= a + b <= 8, Hermitian."""
    rng = random.Random(f"dense-amplitude/{seed}")
    coeffs = [_coeff((1, 1), 0.5)]
    for total in range(3, 9):
        for a in range(1, total):
            b = total - a
            if a > b:
                continue
            re = 0.02 * rng.uniform(-1.0, 1.0)
            im = 0.0 if a == b else 0.02 * rng.uniform(-1.0, 1.0)
            coeffs.append(_coeff((a, b), re, im))
            if a != b:
                coeffs.append(_coeff((b, a), re, -im))
    order = 3
    return {"name": "dense", "dimension": 1, "coefficients": coeffs,
            "trust_radius": 1.0, "maxdeg": _maxdeg(order), "order": order,
            "hmax": 4, "h_grid": H_GRID, "radius_u": 0.35, "radius_v": 0.7,
            "seed": seed, "suites": ["validate", "amplitude"],
            "test_functions": [[0]]}


def _product_2d(seed: int) -> dict:
    """|x1|^2/2 + |x2|^2/2 + 0.1|x1|^4 + 0.05|x2|^4, exponents (x1, x2, x1~, x2~)."""
    coeffs = [_coeff((1, 0, 1, 0), 0.5), _coeff((0, 1, 0, 1), 0.5),
              _coeff((2, 0, 2, 0), 0.1), _coeff((0, 2, 0, 2), 0.05)]
    order = 1
    return {"name": "product-2d", "dimension": 2, "coefficients": coeffs,
            "trust_radius": 1.0, "maxdeg": _maxdeg(order), "order": order,
            "hmax": 4, "h_grid": [0.2, 0.1, 0.05], "radius_u": 0.35,
            "radius_v": 0.7, "n_radial": 6, "n_angular": 12,
            "err_n_radial": 4, "err_n_angular": 8, "seed": seed,
            "suites": ["validate", "amplitude", "kernel"],
            "test_functions": [[1, 1]]}


def configs(workload: str, seed: int) -> list:
    """The configs one repetition of ``workload`` runs, in order."""
    if workload == "quartic-report":
        return [_canonical("perturbed-quartic", seed, ALL_SUITES)]
    if workload == "dense-amplitude":
        return [_dense(seed)]
    if workload == "oracle-verify":
        suites = ["validate", "amplitude", "verify"]
        return [_canonical(name, seed, suites)
                for name in ("gaussian", "quadratic-lambda", "perturbed-quartic")]
    if workload == "product-2d":
        return [_product_2d(seed)]
    raise KeyError(workload)


WORKLOADS = ("quartic-report", "dense-amplitude", "oracle-verify", "product-2d")


def a0_closed_form(cfg: dict) -> float:
    """(2/pi)^n det d dbar Phi(0), read off the coefficient table.

    The entry of the Levi matrix at (j, k) is the coefficient of
    x_j conj(x_k), i.e. of the exponent vector e_j + e_(n+k).
    """
    n = cfg["dimension"]
    levi = [[0j] * n for _ in range(n)]
    for c in cfg["coefficients"]:
        e = c["exponents"]
        if sum(e[:n]) == 1 and sum(e[n:]) == 1:
            levi[e[:n].index(1)][e[n:].index(1)] += complex(c["re"], c["im"])
    return (2.0 / math.pi) ** n * _det(levi).real


def _det(m: list) -> complex:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))
