"""Truncated multivariate power series over complex coefficients.

A series is a finite dict mapping monomial keys to complex coefficients,
truncated at a fixed total degree ``maxdeg``.  All arithmetic stays inside
the truncation: products drop terms whose total degree exceeds the bound of
the result ring, so every operation is exact arithmetic on the retained jet.

Series are value objects: operations return new instances and never mutate
their operands.  Coefficient dicts are plain dicts for speed; treat them as
frozen.

A monomial's key is one int, kept for the coefficient's lifetime: exponent
i sits in bits [DIGIT i, DIGIT (i + 1)), and the total degree in the field
above them, so x^e has key sum(e_i << DIGIT i) + (sum(e) << DIGIT nvars).
Every series has maxdeg <= MAX_DEGREE = 2^DIGIT - 1, and every kept
product has total degree <= maxdeg, so no field of a sum of two keys
carries: the sum is the key of the product monomial.  "Degree <= d" is one
comparison, key < (d + 1) << DIGIT nvars.  Exponent tuples appear only at
the edges: the unchecked constructor, ``from_triples``, ``coeff``,
``to_triples``, ``terms`` and the repr.  The expansion engine keys its
blocks of u^alpha v^beta by the same key over the 2n fast variables, and
reads them through ``exponents`` and ``bidegree``: no other module decodes
a key.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BadVariable,
    ConfigInvalid,
    NonzeroConstantTerm,
    VariableMismatch,
    ZeroConstantTerm,
)

# An exponent vector: one nonnegative integer per ambient variable.
MultiIndex = tuple[int, ...]

# Bits per field of a monomial key, and the largest degree a series keeps.
DIGIT = 8
MAX_DEGREE = (1 << DIGIT) - 1


def monomial_key(mi: MultiIndex) -> int:
    """The key of an exponent vector of total degree <= MAX_DEGREE."""
    return sum(e << DIGIT * i for i, e in enumerate(mi)) + (sum(mi) << DIGIT * len(mi))


def exponents(key: int, nvars: int) -> MultiIndex:
    """The exponents of the first nvars variables a key holds, lowest first."""
    return tuple((key >> DIGIT * i) & MAX_DEGREE for i in range(nvars))


def bidegree(key: int, n: int) -> tuple[int, int]:
    """(|alpha|, |beta|) of the key of x^alpha y^beta, alpha and beta n-vectors."""
    return sum(exponents(key, n)), sum(exponents(key >> DIGIT * n, n))


class TruncatedSeries:
    """``coeffs`` maps monomial keys to coefficients.  The constructor reads
    exponent tuples; with ``_checked`` it takes a dict keyed by monomial
    keys of degree <= maxdeg as it is."""

    __slots__ = ("nvars", "maxdeg", "coeffs")

    def __init__(self, nvars: int, maxdeg: int, coeffs: dict | None = None,
                 _checked: bool = False):
        if nvars < 1:
            raise BadVariable(f"need at least one variable, got {nvars}")
        if not 0 <= maxdeg <= MAX_DEGREE:
            raise ConfigInvalid(f"maxdeg must lie in 0..{MAX_DEGREE}, got {maxdeg}")
        self.nvars = nvars
        self.maxdeg = maxdeg
        if coeffs is None:
            self.coeffs = {}
        elif _checked:
            self.coeffs = coeffs
        else:
            clean: dict[int, complex] = {}
            for mi, c in coeffs.items():
                mi = tuple(int(k) for k in mi)
                if len(mi) != nvars:
                    raise BadVariable(
                        f"exponent vector {mi} has length {len(mi)}, ring has {nvars} variables")
                if any(k < 0 for k in mi):
                    raise BadVariable(f"negative exponent in {mi}")
                c = complex(c)
                if sum(mi) <= maxdeg and c != 0.0:
                    key = monomial_key(mi)
                    clean[key] = clean.get(key, 0.0) + c
            self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, maxdeg: int) -> "TruncatedSeries":
        return cls(nvars, maxdeg, {}, _checked=True)

    @classmethod
    def constant(cls, value: complex, nvars: int, maxdeg: int) -> "TruncatedSeries":
        value = complex(value)
        if value == 0.0:
            return cls.zero(nvars, maxdeg)
        return cls(nvars, maxdeg, {0: value}, _checked=True)

    @classmethod
    def variable(cls, index: int, nvars: int, maxdeg: int) -> "TruncatedSeries":
        if not 0 <= index < nvars:
            raise BadVariable(f"variable index {index} outside ring of {nvars} variables")
        if maxdeg < 1:
            return cls.zero(nvars, maxdeg)
        key = (1 << DIGIT * index) + (1 << DIGIT * nvars)
        return cls(nvars, maxdeg, {key: 1.0 + 0.0j}, _checked=True)

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence], nvars: int, maxdeg: int) -> "TruncatedSeries":
        """Build from the portable form: (exponent-vector, re, im) triples."""
        coeffs: dict[MultiIndex, complex] = {}
        for mi, re, im in triples:
            mi = tuple(int(k) for k in mi)
            coeffs[mi] = coeffs.get(mi, 0.0) + complex(float(re), float(im))
        return cls(nvars, maxdeg, coeffs)

    def to_triples(self) -> list[list]:
        """Portable text form, canonically ordered for byte-stable output."""
        return [[list(mi), c.real, c.imag] for mi, c in sorted(self.terms())]

    # -- inspection -------------------------------------------------------------

    def terms(self) -> list[tuple[MultiIndex, complex]]:
        """(exponent vector, coefficient) of each term, in the series' order."""
        return [(exponents(k, self.nvars), c) for k, c in self.coeffs.items()]

    def coeff(self, mi: Sequence[int]) -> complex:
        mi = tuple(mi)
        if len(mi) != self.nvars or min(mi) < 0 or sum(mi) > self.maxdeg:
            return 0.0 + 0.0j
        return self.coeffs.get(monomial_key(mi), 0.0 + 0.0j)

    @property
    def constant_term(self) -> complex:
        return self.coeffs.get(0, 0.0 + 0.0j)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> float:
        """Largest coefficient magnitude (0.0 for the zero series)."""
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and (
            (self.nvars, self.maxdeg, self.coeffs) == (other.nvars, other.maxdeg, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.nvars, self.maxdeg, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        head = ", ".join(f"{mi}:{c:.3g}" for mi, c in sorted(self.terms())[:4])
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return f"TruncatedSeries(nvars={self.nvars}, maxdeg={self.maxdeg}, {{{head}{tail}}})"

    def _require_same_ring(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"operands have {self.nvars} and {other.nvars} variables")

    # -- ring operations ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TruncatedSeries.constant(other, self.nvars, self.maxdeg)
        self._require_same_ring(other)
        deg = min(self.maxdeg, other.maxdeg)
        lim = (deg + 1) << DIGIT * self.nvars
        out = {k: c for k, c in self.coeffs.items() if k < lim}
        for k, c in other.coeffs.items():
            if k < lim:
                s = out.get(k, 0.0) + c
                if s == 0.0:
                    out.pop(k, None)
                else:
                    out[k] = s
        return TruncatedSeries(self.nvars, deg, out, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.nvars, self.maxdeg,
                               {k: -c for k, c in self.coeffs.items()}, _checked=True)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = TruncatedSeries.constant(other, self.nvars, self.maxdeg)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            if other == 0.0:
                return TruncatedSeries.zero(self.nvars, self.maxdeg)
            return TruncatedSeries(self.nvars, self.maxdeg,
                                   {k: c * other for k, c in self.coeffs.items()},
                                   _checked=True)
        self._require_same_ring(other)
        deg = min(self.maxdeg, other.maxdeg)
        # Iterate the sparser operand outermost.
        a, b = self, other
        if len(a) > len(b):
            a, b = b, a
        # ka + kb < lim exactly when the pair's total degree is <= deg, and
        # then ka + kb is the key of the product monomial.
        lim = (deg + 1) << DIGIT * self.nvars
        bitems = b.truncate(deg).coeffs.items()
        out: dict[int, complex] = {}
        get = out.get
        for ka, ca in a.truncate(deg).coeffs.items():
            room = lim - ka
            for kb, cb in bitems:
                if kb < room:
                    k = ka + kb
                    s = get(k, 0.0) + ca * cb
                    if s == 0.0:
                        out.pop(k, None)
                    else:
                        out[k] = s
        return TruncatedSeries(self.nvars, deg, out, _checked=True)

    __rmul__ = __mul__

    def truncate(self, maxdeg: int) -> "TruncatedSeries":
        """Restrict to total degree <= maxdeg; a higher bound keeps self.maxdeg."""
        if maxdeg >= self.maxdeg:
            return self
        lim = (maxdeg + 1) << DIGIT * self.nvars
        out = {k: c for k, c in self.coeffs.items() if k < lim}
        return TruncatedSeries(self.nvars, maxdeg, out, _checked=True)

    def filter(self, keep: Callable[[MultiIndex], bool]) -> "TruncatedSeries":
        out = {k: c for k, c in self.coeffs.items() if keep(exponents(k, self.nvars))}
        return TruncatedSeries(self.nvars, self.maxdeg, out, _checked=True)

    # -- calculus -------------------------------------------------------------------

    def diff(self, var: int) -> "TruncatedSeries":
        """Partial derivative; the truncation degree drops by one."""
        if not 0 <= var < self.nvars:
            raise BadVariable(f"variable index {var} outside ring of {self.nvars} variables")
        # x_var^e -> e x_var^(e - 1): the key drops by x_var's key, and e
        # is the field at shift.  Every term keeps degree <= maxdeg - 1.
        shift = DIGIT * var
        unit = (1 << shift) + (1 << DIGIT * self.nvars)
        out = {}
        for k, c in self.coeffs.items():
            e = (k >> shift) & MAX_DEGREE
            if e:
                out[k - unit] = c * e
        return TruncatedSeries(self.nvars, max(self.maxdeg - 1, 0), out, _checked=True)

    # Kept only because the benchmark tracer (perfbench/tracer.py) resolves it;
    # tests build reference lifts with it.
    def substitute(self, subs: Sequence["TruncatedSeries"]) -> "TruncatedSeries":
        """Compose: replace variable i by subs[i].

        Every substituted series must vanish at the origin so the composition
        stays centered; the result is truncated at the smallest degree bound
        among self and the substituted series.
        """
        if len(subs) != self.nvars:
            raise VariableMismatch(
                f"{self.nvars} variables but {len(subs)} substituted series")
        nv = subs[0].nvars
        deg = self.maxdeg
        for s in subs:
            if s.nvars != nv:
                raise VariableMismatch("substituted series live in different rings")
            if s.constant_term != 0.0:
                raise NonzeroConstantTerm("substituted series must have zero constant term")
            deg = min(deg, s.maxdeg)
        one = TruncatedSeries.constant(1.0, nv, deg)
        # Memoize powers of each substituted series.
        pows: list[list[TruncatedSeries]] = [[one] for _ in range(self.nvars)]
        # One dict for the sum: adding series would copy it once per term.
        out: dict[int, complex] = {}
        for mi, c in sorted(self.terms(), key=lambda t: sum(t[0])):
            term = None
            for i, k in enumerate(mi):
                if k == 0:
                    continue
                while len(pows[i]) <= k:
                    pows[i].append(pows[i][-1] * subs[i].truncate(deg))
                pk = pows[i][k]
                term = pk if term is None else term * pk
            terms = [(0, c)] if term is None else (
                (key, v * c) for key, v in term.coeffs.items())
            for key, v in terms:
                acc = out.get(key, 0.0) + v
                if acc == 0.0:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return TruncatedSeries(nv, deg, out, _checked=True)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse by Newton iteration; needs a nonzero constant term."""
        c0 = self.constant_term
        if c0 == 0.0:
            raise ZeroConstantTerm("cannot invert a series vanishing at the origin")
        inv = TruncatedSeries.constant(1.0 / c0, self.nvars, self.maxdeg)
        # Each step doubles the number of correct orders.
        steps = max(1, (self.maxdeg + 1).bit_length())
        two = TruncatedSeries.constant(2.0, self.nvars, self.maxdeg)
        for _ in range(steps):
            inv = inv * (two - self * inv)
        return inv

    # -- evaluation --------------------------------------------------------------

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points; ``points`` has shape (m, nvars)."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.nvars:
            raise VariableMismatch(
                f"points have {pts.shape[1]} coordinates, ring has {self.nvars} variables")
        # Power tables per variable up to the largest exponent actually used.
        return self.eval_powers([_powers(pts[:, i], k)
                                 for i, k in enumerate(self.exponent_bounds())])

    def exponent_bounds(self) -> list[int]:
        """Each variable's largest exponent in the series (0 where it is absent)."""
        return [max(((k >> DIGIT * i) & MAX_DEGREE for k in self.coeffs), default=0)
                for i in range(self.nvars)]

    def eval_powers(self, pw) -> np.ndarray:
        """The series at points given by their power rows: pw[i][k] holds
        z_i^k at every point, for k from 0 to at least exponent_bounds()[i].
        eval_grid is this sum over ``_powers`` of the points' coordinates."""
        acc = np.zeros(pw[0][0].shape[0], dtype=complex)
        for mi, c in self.terms():
            v = None
            for i, k in enumerate(mi):
                if k:
                    v = pw[i][k] if v is None else v * pw[i][k]
            acc += c if v is None else c * v
        return acc

    def bilinear_table(self) -> tuple[list[MultiIndex], list[MultiIndex], np.ndarray]:
        """Coefficient table of a 2k-variable series, (xmon, ymon, A).

        The series is sum A[a, b] u^xmon[a] v^ymon[b], with u its first k
        variables and v its last k.  xmon (ymon) holds every monomial of the
        first (second) block up to the series' largest total degree in that
        block, constant monomial first.
        """
        if self.nvars % 2:
            raise VariableMismatch(
                f"bilinear evaluation needs an even variable count, ring has {self.nvars}")
        k = self.nvars // 2
        terms = self.terms()
        xmon = _block_monomials(k, max((sum(mi[:k]) for mi, _ in terms), default=0))
        ymon = _block_monomials(k, max((sum(mi[k:]) for mi, _ in terms), default=0))
        xcol = {mi: i for i, mi in enumerate(xmon)}
        ycol = {mi: i for i, mi in enumerate(ymon)}
        A = np.zeros((len(xmon), len(ymon)), dtype=complex)
        for mi, c in terms:
            A[xcol[mi[:k]], ycol[mi[k:]]] = c
        return xmon, ymon, A

    def bilinear_factors(self, u_vals: np.ndarray,
                         v_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Factors X, B of a 2k-variable series on a product grid.

        Rows of ``u_vals`` (p, k) fill the first k variables and rows of
        ``v_vals`` (m, k) the last k; for k = 1 both may be flat.  X (p, r)
        holds the first block's monomials of ``bilinear_table`` and B = A Y^T
        (r, m) folds the coefficient table A into the second block's, so
        the series at (u_i, v_j) is (X @ B)[i, j].  Row blocks of X can
        share one B, which is much cheaper than eval_grid on all pairs.
        """
        xmon, ymon, A = self.bilinear_table()
        k = self.nvars // 2
        u = np.asarray(u_vals, dtype=complex).reshape(-1, k)
        v = np.asarray(v_vals, dtype=complex).reshape(-1, k)
        return _monomial_table(u, xmon), A @ _monomial_table(v, ymon).T

    # Kept only because the benchmark tracer (perfbench/tracer.py) resolves it;
    # the pipeline calls bilinear_factors.
    def eval_bilinear(self, u_vals: np.ndarray, v_vals: np.ndarray) -> np.ndarray:
        """The series on the product grid, X @ B of bilinear_factors; shape (p, m)."""
        X, B = self.bilinear_factors(u_vals, v_vals)
        return X @ B


def _block_monomials(k: int, degree: int) -> list[MultiIndex]:
    """Exponent vectors in k variables of total degree <= degree."""
    return [mi for mi in itertools.product(range(degree + 1), repeat=k)
            if sum(mi) <= degree]


def _powers(z: np.ndarray, kmax: int) -> np.ndarray:
    """Rows z^0 .. z^kmax of the values z (m,), by repeated products."""
    tab = np.empty((kmax + 1, z.shape[0]), dtype=complex)
    tab[0] = 1.0
    for k in range(1, kmax + 1):
        np.multiply(tab[k - 1], z, out=tab[k])
    return tab


def _monomial_table(pts: np.ndarray, monomials: list[MultiIndex]) -> np.ndarray:
    """Columns z^alpha over rows of ``pts`` (m, k); powers from _powers."""
    m, k = pts.shape
    pw = [_powers(pts[:, j], max(mi[j] for mi in monomials)) for j in range(k)]
    out = np.empty((m, len(monomials)), dtype=complex)
    for col, mi in enumerate(monomials):
        v = pw[0][mi[0]]
        for j in range(1, k):
            v = v * pw[j][mi[j]]
        out[:, col] = v
    return out

