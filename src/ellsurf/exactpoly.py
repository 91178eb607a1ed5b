"""Exact polynomial arithmetic over the rationals.

Three representations cover everything the rest of the package needs:

* ``UniPoly``: dense univariate polynomials with ``fractions.Fraction``
  coefficients, indexed by ascending degree.
* ``HomPoly``: binary forms with a *declared* degree, so the zero form of
  any degree and forms divisible by either variable are first-class values.
  Coefficient ``k`` multiplies ``s^(d-k) * t^k``.
* ``BiHomPoly``: forms homogeneous in two pairs of variables separately
  (bidegree ``(d1, d2)``), stored as a coefficient matrix.

The module is also the one home of the exact scalar primitives the other
layers build on:

* ``rational_sqrt``: square root of a rational, or None;
* ``rational_cubic_roots``: rational roots of a monic cubic, by bisection;
* ``bareiss_det``: fraction-free determinant of an integer matrix;
* ``solve_linear``: exact Gauss-Jordan solve of a square rational system;
* ``resultant`` and ``form_resultant``: Sylvester resultants of
  polynomials at their actual degrees and of binary forms at their
  declared degrees.

Everything is exact; nothing here ever rounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]


class DegreeTooLow(ValueError):
    """Operation needs a higher-degree input (e.g. discriminant of a constant)."""


class DegreeMismatch(ValueError):
    """Operands have incompatible degrees or variable pairs."""


class ExactDivisionError(ArithmeticError):
    """Division that was promised to be exact left a remainder."""


class SingularSystem(ValueError):
    """A square linear system has no unique solution."""


class ZeroScale(ValueError):
    """A scale factor that must be nonzero is zero: rescaling a bilinear
    form, or a scale or line parameter of the double-quadric data."""


class ParseError(ValueError):
    """Text could not be parsed; carries 1-based ``line`` and ``col``."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, strings like ``-3/4``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _ratseq(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


# ---------------------------------------------------------------------------
# exact scalar primitives
# ---------------------------------------------------------------------------


def rational_sqrt(c: Fraction) -> Fraction | None:
    """Exact nonnegative square root of a rational, or None if not a square."""
    if c < 0:
        return None
    rn, rd = isqrt(c.numerator), isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def _integer_cubic_roots(b: int, c: int, d: int) -> list[int]:
    """All integer roots of y^3 + b y^2 + c y + d, without factoring.

    The real line splits into at most three monotone pieces at the critical
    points of the cubic; binary search finds the integer root on each piece.
    """

    def q(y: int) -> int:
        return ((y + b) * y + c) * y + d

    bound = 1 + max(abs(b), abs(c), abs(d))

    def search(lo: int, hi: int, increasing: bool) -> int | None:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            return None
        qlo, qhi = q(lo), q(hi)
        if qlo == 0:
            return lo
        if qhi == 0:
            return hi
        if increasing and (qlo > 0 or qhi < 0):
            return None
        if not increasing and (qlo < 0 or qhi > 0):
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v = q(mid)
            if v == 0:
                return mid
            if (v < 0) == increasing:
                lo = mid
            else:
                hi = mid
        return None

    roots = set()
    disc = b * b - 3 * c
    if disc <= 0:
        # strictly monotone increasing apart from a possible flat point
        r = search(-bound, bound, True)
        if r is not None:
            roots.add(r)
    else:
        rt = isqrt(disc)
        # integer brackets strictly outside / inside the critical interval
        e1 = (-b - rt) // 3 - 1
        m1 = (-b - rt) // 3 + 1
        m2 = (-b + rt) // 3
        e2 = (-b + rt) // 3 + 2
        for lo, hi, inc in ((-bound, e1, True), (m1, m2, False), (e2, bound, True)):
            r = search(lo, hi, inc)
            if r is not None:
                roots.add(r)
        # the two integers the brackets may skip
        for y in (e1 + 1, m2 + 1):
            if q(y) == 0:
                roots.add(y)
    return sorted(roots)


def rational_cubic_roots(p2: Fraction, p1: Fraction, p0: Fraction) -> list[Fraction]:
    """The distinct rational roots of x^3 + p2 x^2 + p1 x + p0, ascending.

    Scaling x = y / m by the lcm m of the denominators gives a monic integer
    cubic in y, whose rational roots are integers.
    """
    scale = lcm(p2.denominator, p1.denominator, p0.denominator)
    b = int(p2 * scale)
    c = int(p1 * scale * scale)
    d = int(p0 * scale ** 3)
    return [Fraction(y, scale) for y in _integer_cubic_roots(b, c, d)]


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Works on a copy; the input is left unchanged.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_linear(
    matrix: Sequence[Sequence[RationalLike]], rhs: Sequence[RationalLike]
) -> list[Fraction]:
    """The solution x of ``matrix x = rhs`` by exact Gauss-Jordan elimination.

    Raises ``SingularSystem`` when the square matrix is singular.
    """
    n = len(rhs)
    rows = [[rat(x) for x in matrix[i]] + [rat(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularSystem("singular linear system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``x^i``.

    Trailing zeros are stripped, the zero polynomial has ``coeffs == ()``
    and degree ``-1``.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: RationalLike) -> UniPoly:
        return UniPoly.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> UniPoly:
        cs = list(_ratseq(coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> UniPoly:
        return UniPoly(())

    @staticmethod
    def constant(c: RationalLike) -> UniPoly:
        return UniPoly.from_coeffs([c])

    @staticmethod
    def x_power(n: int, c: RationalLike = 1) -> UniPoly:
        return UniPoly.from_coeffs([0] * n + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DegreeTooLow("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.degree else Fraction(0)

    def __add__(self, other: UniPoly) -> UniPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: UniPoly) -> UniPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.from_coeffs(
            [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: UniPoly | RationalLike) -> UniPoly:
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly.from_coeffs(out)
        c = rat(other)
        return UniPoly.from_coeffs([c * a for a in self.coeffs])

    def __rmul__(self, other: RationalLike) -> UniPoly:
        return self.__mul__(other)

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise ValueError("negative power")
        result = UniPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: RationalLike) -> Fraction:
        xv = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xv + c
        return acc

    def derivative(self) -> UniPoly:
        return UniPoly.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def shift(self, c: RationalLike) -> UniPoly:
        """Return p(x + c)."""
        cv = rat(c)
        result = UniPoly.zero()
        for a in reversed(self.coeffs):
            result = result * UniPoly.of(cv, 1) + UniPoly.constant(a)
        return result

    def compose(self, inner: UniPoly) -> UniPoly:
        result = UniPoly.zero()
        for a in reversed(self.coeffs):
            result = result * inner + UniPoly.constant(a)
        return result

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q: list[Fraction] = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[k] = factor
            for i in range(d + 1):
                rem[k + i] -= factor * other.coeffs[i]
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly.from_coeffs(q), UniPoly.from_coeffs(rem)

    def divexact(self, other: UniPoly) -> UniPoly:
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ExactDivisionError("division left a remainder")
        return q

    def monic(self) -> UniPoly:
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def text(self, var: str = "x") -> str:
        return _render_terms(
            [(c, ((var, i),)) for i, c in enumerate(self.coeffs) if c != 0][::-1]
        )

    def __str__(self) -> str:
        return self.text()


def _render_terms(terms: Sequence[tuple[Fraction, tuple[tuple[str, int], ...]]]) -> str:
    if not terms:
        return "0"
    chunks: list[str] = []
    for c, powers in terms:
        body = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in powers if e != 0
        )
        mag = abs(c)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if not chunks:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# gcd / squarefree machinery
# ---------------------------------------------------------------------------


def _int_clear(p: UniPoly) -> list[int]:
    """Scale p by a positive rational into a primitive integer list."""
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    return ints


def _int_primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for v in coeffs:
        g = gcd(g, v)
    if g == 0:
        return []
    return [v // g for v in coeffs]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (ascending order)."""
    a = list(a)
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    for _ in range(da - db + 1):
        if len(a) - 1 < db:
            break
        k = len(a) - 1 - db
        top = a[-1]
        a = [c * lc for c in a]
        for i in range(db + 1):
            a[k + i] -= top * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def gcd_poly(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q via a primitive pseudo-remainder sequence.

    ``gcd_poly(0, 0)`` is the zero polynomial.
    """
    if p.is_zero and q.is_zero:
        return UniPoly.zero()
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    a, b = _int_clear(p), _int_clear(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_primitive(_int_prem(a, b))
        a, b = b, r
    return UniPoly.from_coeffs(a).monic()


@dataclass(frozen=True)
class SquarefreeSplit:
    """``poly == unit * product(factor^multiplicity)`` with squarefree,
    pairwise coprime, normalized factors (monic, or monic in the first
    variable for binary forms)."""

    unit: Fraction
    factors: tuple[tuple[object, int], ...]

    def reconstruct(self):
        result = None
        for f, m in self.factors:
            piece = f ** m
            result = piece if result is None else result * piece
        if result is None:
            raise DegreeTooLow("split has no factors; caller holds the degree-0 case")
        return result * self.unit


def squarefree_split(p: UniPoly | "HomPoly") -> SquarefreeSplit:
    """Yun decomposition; exact over Q."""
    if isinstance(p, HomPoly):
        return _squarefree_split_form(p)
    if p.is_zero:
        raise DegreeTooLow("zero polynomial has no squarefree decomposition")
    unit = p.leading
    if p.degree == 0:
        return SquarefreeSplit(unit, ())
    work = p.monic()
    factors: list[tuple[UniPoly, int]] = []
    dp = work.derivative()
    g = gcd_poly(work, dp)
    c = work.divexact(g)
    d = dp.divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        f = gcd_poly(c, d)
        if f.degree > 0:
            factors.append((f, i))
        c = c.divexact(f)
        d = d.divexact(f) - c.derivative()
        i += 1
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return SquarefreeSplit(unit, tuple(factors))


def refine_against(split: SquarefreeSplit, q: UniPoly | "HomPoly") -> SquarefreeSplit:
    """Subdivide each factor so every part divides ``q`` to a uniform power.

    Refining against the zero polynomial is a no-op (every factor divides
    it to any power).
    """
    if isinstance(q, HomPoly):
        if q.is_zero:
            return split
        out: list[tuple[HomPoly, int]] = []
        for f, m in split.factors:
            for piece, _v in _refine_factor_form(f, q):
                out.append((piece, m))
        out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
        return SquarefreeSplit(split.unit, tuple(out))
    if q.is_zero:
        return split
    out_u: list[tuple[UniPoly, int]] = []
    for f, m in split.factors:
        for piece, _v in _refine_factor_uni(f, q):
            out_u.append((piece, m))
    out_u.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return SquarefreeSplit(split.unit, tuple(out_u))


def _refine_factor_uni(f: UniPoly, q: UniPoly) -> list[tuple[UniPoly, int]]:
    pieces: list[tuple[UniPoly, int]] = []
    g = f
    r = q
    k = 0
    while True:
        d = gcd_poly(g, r)
        e = g.divexact(d)
        if e.degree > 0:
            pieces.append((e.monic(), k))
        if d.degree == 0:
            break
        g = d
        r = r.divexact(d)
        k += 1
    return pieces


def multiplicity_in(q: UniPoly | "HomPoly", f: UniPoly | "HomPoly") -> int:
    """Largest k with f^k dividing q; q must be nonzero and f nonconstant.

    Raises ``DegreeTooLow`` for a zero ``q`` or a nonzero constant ``f``
    (which divides to every power), ``ZeroDivisionError`` for a zero ``f``.
    """
    if q.is_zero:
        raise DegreeTooLow("multiplicity in the zero polynomial is undefined")
    if f.is_zero:
        raise ZeroDivisionError("multiplicity of the zero divisor")
    if f.degree == 0:
        raise DegreeTooLow("a constant divisor divides to every power")
    bound = q.degree // f.degree
    r = q
    for k in range(bound):
        if isinstance(r, HomPoly):
            ok, r = _try_divide_form(r, f)
        else:
            r, rem = r.divmod(f)
            ok = rem.is_zero
        if not ok:
            return k
    return bound


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def _sylvester_resultant(pc: Sequence[Fraction], qc: Sequence[Fraction]) -> Fraction:
    """Determinant of the Sylvester matrix of two coefficient rows given in
    descending order, at the degrees ``len(pc) - 1`` and ``len(qc) - 1``."""
    m, n = len(pc) - 1, len(qc) - 1
    dp = lcm(*(c.denominator for c in pc))
    dq = lcm(*(c.denominator for c in qc))
    pi = [int(c * dp) for c in pc]
    qi = [int(c * dq) for c in qc]
    rows = [[0] * i + pi + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qi + [0] * (m - 1 - i) for i in range(m)]
    return Fraction(bareiss_det(rows), dp**n * dq**m)


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Sylvester-matrix resultant, exact.

    Conventions: ``res(p, q) = lc(p)^deg(q) * lc(q)^deg(p) * prod(roots
    differences)``; if either input is a nonzero constant ``c`` the result
    is ``c^deg(other)``; the resultant with the zero polynomial is 0
    (and 1 if the other input is a nonzero constant).
    """
    if p.is_zero or q.is_zero:
        other = q if p.is_zero else p
        if other.degree <= 0 and not other.is_zero:
            return Fraction(1)
        return Fraction(0)
    return _sylvester_resultant(p.coeffs[::-1], q.coeffs[::-1])


def discriminant_univ(p: UniPoly) -> Fraction:
    """Discriminant at the actual degree: for degree n,
    ``(-1)^(n(n-1)/2) res(p, p') / lc(p)``. Needs degree >= 2."""
    n = p.degree
    if n < 2:
        raise DegreeTooLow("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading


def discriminant_form(p: UniPoly, degree: int) -> Fraction:
    """Discriminant of ``p`` read as a binary form of declared ``degree``.

    A degree drop of one (root at infinity) multiplies the actual-degree
    discriminant by ``lc^2``; a drop of two or more makes it zero.
    """
    if degree < 2:
        raise DegreeTooLow("form discriminant needs declared degree >= 2")
    if p.is_zero:
        raise DegreeTooLow("form discriminant of the zero form is undefined")
    drop = degree - p.degree
    if drop < 0:
        raise DegreeMismatch("actual degree exceeds the declared degree")
    if drop >= 2:
        return Fraction(0)
    if p.degree >= 2:
        base = discriminant_univ(p)
    elif p.degree == 1:
        base = Fraction(1)
    else:
        raise DegreeTooLow("constant cannot carry declared degree < 2 here")
    if drop == 1:
        base *= p.leading**2
    return base


# ---------------------------------------------------------------------------
# binary forms with declared degree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomPoly:
    """Binary form of declared degree ``len(coeffs) - 1``.

    ``coeffs[k]`` multiplies ``vars[0]^(d-k) * vars[1]^k``; all-zero
    coefficients give the zero form of that degree.
    """

    vars: tuple[str, str]
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(vars: tuple[str, str], coeffs: Iterable[RationalLike]) -> HomPoly:
        cs = _ratseq(coeffs)
        if not cs:
            raise DegreeTooLow("a form needs at least one coefficient")
        return HomPoly(tuple(vars), cs)

    @staticmethod
    def zero(vars: tuple[str, str], degree: int) -> HomPoly:
        return HomPoly(tuple(vars), tuple(Fraction(0) for _ in range(degree + 1)))

    @staticmethod
    def constant(vars: tuple[str, str], c: RationalLike) -> HomPoly:
        return HomPoly.of(vars, [c])

    @staticmethod
    def var_power(vars: tuple[str, str], which: int, degree: int) -> HomPoly:
        cs = [Fraction(0)] * (degree + 1)
        cs[0 if which == 0 else degree] = Fraction(1)
        return HomPoly(tuple(vars), tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_vars(self, other: HomPoly) -> None:
        if self.vars != other.vars:
            raise DegreeMismatch(
                f"variable pairs differ: {self.vars} vs {other.vars}"
            )

    def __add__(self, other: HomPoly) -> HomPoly:
        self._check_vars(other)
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        return HomPoly(
            self.vars, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: HomPoly) -> HomPoly:
        return self + (-other)

    def __neg__(self) -> HomPoly:
        return HomPoly(self.vars, tuple(-c for c in self.coeffs))

    def __mul__(self, other: HomPoly | RationalLike) -> HomPoly:
        if isinstance(other, HomPoly):
            self._check_vars(other)
            out = [Fraction(0)] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return HomPoly(self.vars, tuple(out))
        c = rat(other)
        return HomPoly(self.vars, tuple(c * a for a in self.coeffs))

    def __rmul__(self, other: RationalLike) -> HomPoly:
        return self.__mul__(other)

    def __pow__(self, n: int) -> HomPoly:
        if n < 0:
            raise ValueError("negative power")
        result = HomPoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, s: RationalLike, t: RationalLike) -> Fraction:
        sv, tv = rat(s), rat(t)
        d = self.degree
        acc = Fraction(0)
        for k, c in enumerate(self.coeffs):
            if c != 0:
                acc += c * sv ** (d - k) * tv**k
        return acc

    def swap(self) -> HomPoly:
        """Exchange the two variables (coefficients reverse)."""
        return HomPoly((self.vars[1], self.vars[0]), tuple(reversed(self.coeffs)))

    def rename(self, vars: tuple[str, str]) -> HomPoly:
        return HomPoly(tuple(vars), self.coeffs)

    def substitute(self, f: HomPoly, g: HomPoly) -> HomPoly:
        """Plug forms (f, g) of one common degree in for the variables."""
        f._check_vars(g)
        if f.degree != g.degree:
            raise DegreeMismatch("substituted forms must share a degree")
        d = self.degree
        result = HomPoly.zero(f.vars, d * f.degree)
        fpows = [HomPoly.constant(f.vars, 1)]
        gpows = [HomPoly.constant(f.vars, 1)]
        for _ in range(d):
            fpows.append(fpows[-1] * f)
            gpows.append(gpows[-1] * g)
        for k, c in enumerate(self.coeffs):
            if c != 0:
                result = result + fpows[d - k] * gpows[k] * c
        return result

    def as_unipoly(self) -> UniPoly:
        """Dehomogenize at ``vars[1] = 1`` (polynomial in ``vars[0]``)."""
        d = self.degree
        return UniPoly.from_coeffs([self.coeffs[d - i] for i in range(d + 1)])

    def second_var_multiplicity(self) -> int:
        """Multiplicity of the root [1:0], i.e. the power of ``vars[1]``."""
        if self.is_zero:
            raise DegreeTooLow("zero form has no root multiplicities")
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        raise AssertionError("unreachable")

    def leading_in_first(self) -> Fraction:
        """Coefficient of the highest power of ``vars[0]`` present."""
        return self.coeffs[self.second_var_multiplicity()]

    def monic_in_first(self) -> HomPoly:
        return self * (1 / self.leading_in_first())

    def text(self) -> str:
        d = self.degree
        terms = [
            (c, ((self.vars[0], d - k), (self.vars[1], k)))
            for k, c in enumerate(self.coeffs)
            if c != 0
        ]
        return _render_terms(terms)

    def __str__(self) -> str:
        return self.text()


def homogenize(p: UniPoly, vars: tuple[str, str], degree: int) -> HomPoly:
    """Lift to a binary form of the declared degree (>= actual degree)."""
    if degree < p.degree:
        raise DegreeMismatch(
            f"declared degree {degree} below actual degree {p.degree}"
        )
    cs = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(p.coeffs):
        cs[degree - i] = c
    return HomPoly(tuple(vars), tuple(cs))


def form_discriminant(f: HomPoly) -> Fraction:
    """Discriminant of a binary form at its declared degree."""
    if f.is_zero:
        raise DegreeTooLow("zero form has no discriminant")
    return discriminant_form(f.as_unipoly(), f.degree)


def form_resultant(p: HomPoly, q: HomPoly) -> Fraction:
    """Resultant of two binary forms at their declared degrees.

    This is the Sylvester determinant of the coefficient rows, so it equals
    ``resultant(p.as_unipoly(), q.as_unipoly())`` when both first
    coefficients are nonzero.  Unlike that affine resultant it sees roots at
    infinity: for forms of positive degree it vanishes exactly when they
    share a zero on the projective line (every point is a zero of the zero
    form).
    """
    p._check_vars(q)
    return _sylvester_resultant(p.coeffs, q.coeffs)


def _try_divide_form(p: HomPoly, f: HomPoly) -> tuple[bool, HomPoly | None]:
    p._check_vars(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero form")
    if p.is_zero:
        return True, HomPoly.zero(p.vars, max(p.degree - f.degree, 0))
    if p.degree < f.degree:
        return False, None
    ord_p = p.second_var_multiplicity()
    ord_f = f.second_var_multiplicity()
    if ord_p < ord_f:
        return False, None
    quo, rem = p.as_unipoly().divmod(f.as_unipoly())
    if not rem.is_zero:
        return False, None
    return True, homogenize(quo, p.vars, p.degree - f.degree)


def divexact_form(p: HomPoly, f: HomPoly) -> HomPoly:
    ok, q = _try_divide_form(p, f)
    if not ok:
        raise ExactDivisionError("form division left a remainder")
    assert q is not None
    return q


def gcd_form(p: HomPoly, q: HomPoly) -> HomPoly:
    """Gcd of binary forms, normalized monic in the first variable.

    The degree of the result is the actual gcd degree, not padded.
    """
    p._check_vars(q)
    if p.is_zero and q.is_zero:
        return HomPoly.zero(p.vars, 0)
    if p.is_zero:
        return q.monic_in_first()
    if q.is_zero:
        return p.monic_in_first()
    e = min(p.second_var_multiplicity(), q.second_var_multiplicity())
    g = gcd_poly(p.as_unipoly(), q.as_unipoly())
    lifted = homogenize(g, p.vars, g.degree + e)
    return lifted.monic_in_first()


def _squarefree_split_form(p: HomPoly) -> SquarefreeSplit:
    if p.is_zero:
        raise DegreeTooLow("zero form has no squarefree decomposition")
    e = p.second_var_multiplicity()
    u = p.as_unipoly()
    factors: list[tuple[HomPoly, int]] = []
    if u.degree == 0:
        unit = u.coeffs[0]
    else:
        s = squarefree_split(u)
        unit = s.unit
        factors = [
            (homogenize(f, p.vars, f.degree), m) for f, m in s.factors
        ]
    if e > 0:
        factors.append((HomPoly.var_power(p.vars, 1, 1), e))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return SquarefreeSplit(unit, tuple(factors))


def _refine_factor_form(f: HomPoly, q: HomPoly) -> list[tuple[HomPoly, int]]:
    pieces: list[tuple[HomPoly, int]] = []
    g = f
    r = q
    k = 0
    while True:
        d = gcd_form(g, r)
        e = divexact_form(g, d)
        if e.degree > 0:
            pieces.append((e.monic_in_first(), k))
        if d.degree == 0:
            break
        g = d
        r = divexact_form(r, d)
        k += 1
    return pieces


def poly_sqrt(p: UniPoly) -> UniPoly | None:
    """Exact polynomial square root with positive leading coefficient,
    or None when ``p`` is not a square in Q[x]."""
    if p.is_zero:
        return p
    if p.degree % 2:
        return None
    half = p.degree // 2
    lead = rational_sqrt(p.leading)
    if lead is None:
        return None
    sigma = [Fraction(0)] * (half + 1)
    sigma[half] = lead
    for k in range(1, half + 1):
        # match the coefficient of x^(2*half - k)
        target = p.coeff(2 * half - k)
        acc = Fraction(0)
        for i in range(1, k):
            acc += sigma[half - i] * sigma[half - k + i]
        sigma[half - k] = (target - acc) / (2 * lead)
    cand = UniPoly.from_coeffs(sigma)
    return cand if cand * cand == p else None


def form_sqrt(f: HomPoly) -> HomPoly | None:
    """Exact square root of a binary form (declared half degree), or None."""
    if f.degree % 2:
        return None
    half = f.degree // 2
    if f.is_zero:
        return HomPoly.zero(f.vars, half)
    if f.second_var_multiplicity() % 2:
        return None
    root = poly_sqrt(f.as_unipoly())
    if root is None:
        return None
    return homogenize(root, f.vars, half)


# ---------------------------------------------------------------------------
# bidegree forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiHomPoly:
    """Form of bidegree ``(d1, d2)`` in two separate variable pairs.

    ``rows[i][j]`` multiplies
    ``vars1[0]^(d1-i) vars1[1]^i * vars2[0]^(d2-j) vars2[1]^j``.
    """

    vars1: tuple[str, str]
    vars2: tuple[str, str]
    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def zero(vars1: tuple[str, str], vars2: tuple[str, str], d1: int, d2: int) -> BiHomPoly:
        return BiHomPoly(
            tuple(vars1),
            tuple(vars2),
            tuple(tuple(Fraction(0) for _ in range(d2 + 1)) for _ in range(d1 + 1)),
        )

    @property
    def deg1(self) -> int:
        return len(self.rows) - 1

    @property
    def deg2(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def _check(self, other: BiHomPoly) -> None:
        if self.vars1 != other.vars1 or self.vars2 != other.vars2:
            raise DegreeMismatch("variable pairs differ")

    def __add__(self, other: BiHomPoly) -> BiHomPoly:
        self._check(other)
        if self.deg1 != other.deg1 or self.deg2 != other.deg2:
            raise DegreeMismatch("cannot add forms of different bidegrees")
        return BiHomPoly(
            self.vars1,
            self.vars2,
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: BiHomPoly) -> BiHomPoly:
        return self + (-other)

    def __neg__(self) -> BiHomPoly:
        return BiHomPoly(
            self.vars1,
            self.vars2,
            tuple(tuple(-c for c in row) for row in self.rows),
        )

    def __mul__(self, other: BiHomPoly | RationalLike) -> BiHomPoly:
        if isinstance(other, BiHomPoly):
            self._check(other)
            d1 = self.deg1 + other.deg1
            d2 = self.deg2 + other.deg2
            out = [[Fraction(0)] * (d2 + 1) for _ in range(d1 + 1)]
            for i, row in enumerate(self.rows):
                for j, a in enumerate(row):
                    if a == 0:
                        continue
                    for k, orow in enumerate(other.rows):
                        for l, b in enumerate(orow):
                            out[i + k][j + l] += a * b
            return BiHomPoly(
                self.vars1, self.vars2, tuple(tuple(r) for r in out)
            )
        c = rat(other)
        return BiHomPoly(
            self.vars1,
            self.vars2,
            tuple(tuple(c * v for v in row) for row in self.rows),
        )

    def __rmul__(self, other: RationalLike) -> BiHomPoly:
        return self.__mul__(other)

    def __call__(
        self,
        s: RationalLike,
        t: RationalLike,
        u: RationalLike,
        v: RationalLike,
    ) -> Fraction:
        sv, tv, uv, vv = rat(s), rat(t), rat(u), rat(v)
        d1, d2 = self.deg1, self.deg2
        acc = Fraction(0)
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c != 0:
                    acc += c * sv ** (d1 - i) * tv**i * uv ** (d2 - j) * vv**j
        return acc

    def pair1_coefficient(self, i: int) -> HomPoly:
        """Coefficient of ``vars1[0]^(d1-i) vars1[1]^i`` as a form in vars2."""
        return HomPoly(self.vars2, self.rows[i])

    def pair2_coefficient(self, j: int) -> HomPoly:
        """Coefficient of ``vars2[0]^(d2-j) vars2[1]^j`` as a form in vars1."""
        return HomPoly(self.vars1, tuple(row[j] for row in self.rows))

    def swap_pairs(self) -> BiHomPoly:
        return BiHomPoly(
            self.vars2,
            self.vars1,
            tuple(
                tuple(self.rows[i][j] for i in range(self.deg1 + 1))
                for j in range(self.deg2 + 1)
            ),
        )

    def substitute_pair2(self, f: HomPoly, g: HomPoly) -> BiHomPoly:
        """Plug one-degree forms (f, g) in for the second variable pair."""
        f._check_vars(g)
        if f.degree != g.degree:
            raise DegreeMismatch("substituted forms must share a degree")
        d2 = self.deg2
        result: BiHomPoly | None = None
        for j in range(d2 + 1):
            coeff_form = self.pair2_coefficient(j)
            piece_form = (f ** (d2 - j)) * (g**j)
            term = tensor_forms(coeff_form, piece_form.rename(f.vars))
            result = term if result is None else result + term
        assert result is not None
        return result

    def text(self) -> str:
        d1, d2 = self.deg1, self.deg2
        terms = []
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c != 0:
                    terms.append(
                        (
                            c,
                            (
                                (self.vars1[0], d1 - i),
                                (self.vars1[1], i),
                                (self.vars2[0], d2 - j),
                                (self.vars2[1], j),
                            ),
                        )
                    )
        return _render_terms(terms)

    def __str__(self) -> str:
        return self.text()


def tensor_forms(p: HomPoly, q: HomPoly) -> BiHomPoly:
    """Outer product: a form in ``vars1`` times a form in ``vars2``."""
    return BiHomPoly(
        p.vars,
        q.vars,
        tuple(tuple(a * b for b in q.coeffs) for a in p.coeffs),
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def parse_rational(text: str, line: int = 1) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text.strip()!r}: {exc}", line, 1) from None


def parse_hompoly(
    text: str,
    vars: tuple[str, str],
    degree: int | None = None,
    line: int = 1,
) -> HomPoly:
    """Parse a term-sum like ``3*s^2 - 2*s*t + t^2`` into a binary form.

    Every term must use only the two declared variables and all terms must
    share one total degree (which must equal ``degree`` when given).
    ``0`` parses to the zero form and needs an explicit ``degree``.
    """
    terms = _parse_terms(text, set(vars), line)
    degrees = {sum(e for _v, e in powers) for _c, powers in terms}
    if not terms or (len(terms) == 1 and terms[0][0] == 0):
        if degree is None:
            raise ParseError("zero form needs an explicit degree", line, 1)
        return HomPoly.zero(vars, degree)
    if len(degrees) != 1:
        raise ParseError(
            f"terms are not homogeneous (total degrees {sorted(degrees)})", line, 1
        )
    d = degrees.pop()
    if degree is not None and degree != d:
        raise ParseError(f"declared degree {degree} but terms have degree {d}", line, 1)
    coeffs = [Fraction(0)] * (d + 1)
    for c, powers in terms:
        es = {v: 0 for v in vars}
        for v, e in powers:
            es[v] += e
        coeffs[es[vars[1]]] += c
    return HomPoly(tuple(vars), tuple(coeffs))


def _parse_terms(
    text: str, allowed: set[str], line: int
) -> list[tuple[Fraction, list[tuple[str, int]]]]:
    pos = 0
    n = len(text)
    terms: list[tuple[Fraction, list[tuple[str, int]]]] = []
    sign = 1
    expect_term = True
    current_coeff: Fraction | None = None
    current_pows: list[tuple[str, int]] = []
    started = False

    def flush(col: int) -> None:
        nonlocal sign, current_coeff, current_pows, started
        if not started:
            raise ParseError("empty term", line, col)
        c = current_coeff if current_coeff is not None else Fraction(1)
        terms.append((sign * c, current_pows))
        sign = 1
        current_coeff = None
        current_pows = []
        started = False

    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", line, bad + 1)
        col = m.start(m.lastgroup) + 1 if m.lastgroup else m.start() + 1
        pos = m.end()
        if m.group("num"):
            try:
                val = Fraction(m.group("num"))
            except ZeroDivisionError:
                raise ParseError(
                    f"zero denominator in {m.group('num')!r}", line, col
                ) from None
            if current_coeff is None:
                current_coeff = val
            else:
                current_coeff *= val
            started = True
        elif m.group("name"):
            name = m.group("name")
            if name not in allowed:
                raise ParseError(f"unknown variable {name!r}", line, col)
            exp = 1
            m2 = _TOKEN_RE.match(text, pos)
            if m2 and m2.group("op") == "^":
                pos = m2.end()
                m3 = _TOKEN_RE.match(text, pos)
                if not m3 or not m3.group("num") or "/" in m3.group("num"):
                    raise ParseError("exponent must be a nonnegative integer", line, pos + 1)
                exp = int(m3.group("num"))
                pos = m3.end()
            current_pows.append((name, exp))
            started = True
        else:
            op = m.group("op")
            if op in "+-":
                if started:
                    flush(col)
                if op == "-":
                    sign = -sign
                expect_term = True
            elif op == "*":
                if not started:
                    raise ParseError("'*' needs a left operand", line, col)
            else:
                raise ParseError(f"unsupported operator {op!r}", line, col)
    if started:
        flush(n)
    elif expect_term and not terms:
        raise ParseError("empty polynomial text", line, 1)
    elif sign == -1:
        raise ParseError("dangling sign", line, n)
    return terms
