"""Quadrature grids and deterministic sampling helpers.

Discs are integrated with a Gauss-Legendre rule in the radius (optionally
split into panels so piecewise-smooth radial factors stay spectrally
accurate) tensored with a uniform trapezoid rule in the angle, which is
exact for trigonometric polynomials below the node count.

Samples are one power-of-2 block of scipy's scrambled Sobol' sequence,
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)``,
reproduced bit for bit with numpy alone: the Joe-Kuo direction numbers
(Joe & Kuo, SIAM J. Sci. Comput. 30, 2008), a left linear matrix scramble
plus a digital shift drawn from ``np.random.default_rng(seed)`` in scipy's
order, and points in Gray-code order at 30 bits.  ``sobol_ball`` maps that
block onto a complex ball, so every sample set is a single draw.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigInvalid

SOBOL_BITS = 30
# Joe-Kuo's primitive polynomials (as integers; degree s = bit length - 1)
# and initial direction numbers m_1..m_s, for the first SOBOL_DIMS
# dimensions of the table scipy ships.  Dimension 0 has no polynomial:
# its direction numbers are all 1.
_JOE_KUO = (
    (1, ()),
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
)
SOBOL_DIMS = len(_JOE_KUO)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_nodes(radius: float, n_nodes: int,
                 breakpoints: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, radius], split at breakpoints."""
    edges = [0.0] + sorted(b for b in breakpoints if 0.0 < b < radius) + [radius]
    panels = len(edges) - 1
    per = max(4, n_nodes // panels)
    x, w = _gauss_legendre(per)
    rs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rs.append(mid + half * x)
        ws.append(half * w)
    return np.concatenate(rs), np.concatenate(ws)


def disc_grid(radius: float, n_radial: int = 64, n_angular: int = 128,
              breakpoints: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (complex) and weights for Lebesgue integration over a disc."""
    r, wr = radial_nodes(radius, n_radial, breakpoints)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    nodes = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr[:, None] * r[:, None] * wt * np.ones((1, n_angular))).ravel()
    return nodes, weights


def polydisc_grid(radii: tuple[float, ...], n_radial: int, n_angular: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Tensor grid over a polydisc; nodes have shape (m, n)."""
    grids = [disc_grid(r, n_radial, n_angular) for r in radii]
    nodes = grids[0][0][:, None]
    weights = grids[0][1]
    for nd, wt in grids[1:]:
        m, k = nodes.shape[0], nd.shape[0]
        nodes = np.concatenate(
            [np.repeat(nodes, k, axis=0), np.tile(nd, m)[:, None]], axis=1)
        weights = np.repeat(weights, k) * np.tile(wt, m)
    return nodes, weights


def _angular_table(n_angular: int, lo: int, hi: int) -> np.ndarray:
    """e^{i k theta_a} at the angles theta_a = 2 pi a / n_angular for the
    frequencies k = 0..hi, lo..-1 (a negative k at its negative index).
    Each entry is one of the n_angular roots of unity, e^{2 pi i m /
    n_angular} at m = a k mod n_angular, so a large a k loses no digits."""
    ks = np.arange(hi - lo + 1)
    ks[hi + 1:] -= ks.size
    a = np.arange(n_angular)
    return np.exp(2j * np.pi / n_angular * a)[np.outer(a, ks) % n_angular]


def polar_moments(f: np.ndarray, radii: tuple[float, ...], n_radial: int,
                  n_angular: int, max_power: int, freqs: tuple[int, int]) -> np.ndarray:
    """Moments of f on the tensor polar grid of ``polydisc_grid(radii,
    n_radial, n_angular)`` (``disc_grid`` for one radius): the sums
    H[..., p_1, k_1, ..., p_n, k_n] = sum over the nodes of f prod_j
    r_j^p_j e^{i k_j theta_j}, for 0 <= p_j <= ``max_power`` and lo <= k_j <=
    hi with (lo, hi) = ``freqs``, lo <= 0 <= hi, a negative k_j read at its
    negative index.  The nodes are f's last axis; its leading axes are a
    batch, each summed on its own.  So sum_nodes f conj(y^s) y^t =
    H[..., s_1 + t_1, t_1 - s_1, ...].

    The grid stores its radii outermost, so f is one (radii x angles) block
    per variable: the node sums, only reordered, are the angle sums, one
    product with the table of e^{i k theta} per angular axis, then the
    radius sums, one product with the radial powers per variable.  Each is
    one matrix product over the whole batch, except the angle sums of the
    variables before the last, which are stacked ones.
    """
    table = _angular_table(n_angular, *freqs)
    n_freqs = table.shape[1]
    rs = [radial_nodes(radius, n_radial)[0] for radius in radii]
    # Angle sums, last variable first: its angle axis is f's last.
    H, after = f.reshape(-1, n_angular) @ table, n_freqs
    for r in reversed(rs[:-1]):
        after *= r.size
        H = np.matmul(table.T, H.reshape(-1, n_angular, after))
        after *= n_freqs
    # Radius sums, first variable first: each contracts the radial axis
    # that follows the batch and moves its (power, frequency) pair last.
    batch = math.prod(f.shape[:-1])
    for r in rs:
        H = H.reshape(batch, r.size, -1).swapaxes(1, 2).reshape(-1, r.size)
        H = (H @ (r ** np.arange(max_power + 1)[:, None]).T).reshape(batch, n_freqs, -1)
        H = H.swapaxes(1, 2)
    return H.reshape(f.shape[:-1] + (max_power + 1, n_freqs) * len(rs))


def _direction_numbers(d: int) -> np.ndarray:
    """Unscrambled direction numbers v[i, j] of the first d dimensions, bit
    j of the point index, as 30-bit integers (Bratley & Fox, ACM TOMS 14,
    1988: m_j = m_(j-s) ^ XOR_k a_k 2^k m_(j-k))."""
    v = np.empty((d, SOBOL_BITS), dtype=np.int64)
    for i, (poly, init) in enumerate(_JOE_KUO[:d]):
        s = poly.bit_length() - 1
        m = list(init) or [1] * SOBOL_BITS
        for j in range(len(m), SOBOL_BITS):
            new = m[j - s]
            for k in range(1, s + 1):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        v[i] = m
    return v << np.arange(SOBOL_BITS - 1, -1, -1)


def sobol(d: int, m: int, seed: int = 0) -> np.ndarray:
    """The first 2^m scrambled Sobol' points in [0, 1)^d, shape (2^m, d),
    bit for bit ``scipy.stats.qmc.Sobol(d, scramble=True,
    seed=seed).random_base2(m)``.

    The scramble draws, from ``np.random.default_rng(seed)``, first the
    digital shift's bits and then the lower-triangular binary matrices of
    the linear matrix scramble, whose diagonal is set to 1.  Points are
    30-bit integers in Gray-code order, built one row per dimension, so the
    result is a transpose and each coordinate is one contiguous run.
    """
    if not 1 <= d <= SOBOL_DIMS:
        raise ConfigInvalid(
            f"Sobol' dimension {d} outside the embedded 1..{SOBOL_DIMS}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (d, SOBOL_BITS), dtype=np.uint32)
    ltm = np.tril(rng.integers(0, 2, (d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
    # Digit k of a direction number is its bit 29 - k (most significant
    # first); scrambled digit p is the XOR over k <= p of ltm[p, k] * digit k.
    place = np.arange(SOBOL_BITS - 1, -1, -1)
    digits = _direction_numbers(d)[:, :, None] >> place & 1
    v = ((digits @ ltm.transpose(0, 2, 1) & 1) << place).sum(axis=2).astype(np.uint32)
    pts = np.empty((d, 2 ** m), dtype=np.uint32)
    pts[:, 0] = shift @ (2 ** np.arange(SOBOL_BITS, dtype=np.uint32))
    for j in range(m):
        # Gray-code order: points [2^j, 2^(j+1)) are points [0, 2^j)
        # reversed, each XOR direction number j.
        np.bitwise_xor(pts[:, 2 ** j - 1::-1], v[:, j, None],
                       out=pts[:, 2 ** j:2 ** (j + 1)])
    out = pts.astype(np.float64)
    out *= 2.0 ** -SOBOL_BITS
    return out.T


def sobol_ball(nvars_complex: int, radius: float, n_samples: int,
               seed: int = 0) -> np.ndarray:
    """n_samples scrambled-Sobol' points in the complex ball |z| <= radius,
    shape (n_samples, nvars_complex).

    The first n_samples points u of one 2^m-point block of the
    2nv-dimensional sequence (nv = nvars_complex, 2^m >= n_samples) are
    mapped onto the ball by a measure-preserving map (Fang & Wang,
    Number-theoretic Methods in Statistics, 1994, ch. 4): |z|^2 = radius^2
    u_0^(1/nv); the shares |z_j|^2 / |z|^2, uniform on the simplex, by stick
    breaking on u_1..u_(nv-1); the phases 2 pi u_nv..u_(2nv-1).
    """
    nv = nvars_complex
    u = sobol(2 * nv, (n_samples - 1).bit_length(), seed)[:n_samples]
    shares = np.empty((n_samples, nv))
    rest = np.ones(n_samples)
    for j in range(nv - 1):
        keep = u[:, 1 + j] ** (1.0 / (nv - 1 - j))
        shares[:, j] = rest * (1.0 - keep)
        rest *= keep
    shares[:, -1] = rest
    r2 = radius ** 2 * u[:, 0] ** (1.0 / nv)
    return np.sqrt(r2[:, None] * shares) * np.exp(2j * np.pi * u[:, nv:])


def sampled_ratio(num: np.ndarray, den: np.ndarray, radius: float) -> np.ndarray:
    """num / den at the samples with den > (1e-6 * radius)^2, den a squared
    distance of samples in the ball of ``radius``: the one coincidence rule
    of every sampled margin.  Nearer samples carry no ratio, because there
    the cancellation in num swamps its limit."""
    keep = den > (1e-6 * radius) ** 2
    return num[keep] / den[keep]


def radial_bump(r: np.ndarray, plateau: float, support: float) -> np.ndarray:
    """Cutoff equal to 1 for r <= plateau, 0 for r >= support.

    Transition profile exp(1 - 1/(1 - t^2)) in t = (r - plateau)/(support - plateau).
    """
    r = np.asarray(r, dtype=float)
    chi = np.zeros_like(r)
    chi[r <= plateau] = 1.0
    mid = (r > plateau) & (r < support)
    t = (r[mid] - plateau) / (support - plateau)
    chi[mid] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return chi
