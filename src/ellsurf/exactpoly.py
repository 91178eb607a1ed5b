"""Exact polynomial arithmetic over the rationals.

Three representations cover everything the rest of the package needs:

* ``UniPoly``: dense univariate polynomials, indexed by ascending degree.
  No other module uses it; it is kept only until the benchmark stops
  tracing it by name.  Curves, pencils and sections are ``HomPoly`` values.
* ``HomPoly``: binary forms with a *declared* degree, so the zero form of
  any degree and forms divisible by either variable are first-class values.
  Coefficient ``k`` multiplies ``s^(d-k) * t^k``.
* ``BiHomPoly``: forms homogeneous in two pairs of variables separately
  (bidegree ``(d1, d2)``), stored as rows of a coefficient matrix.

All three store integer numerators ``num`` (a tuple, or for ``BiHomPoly``
a tuple of row tuples) over one positive denominator ``den``, in lowest
terms (gcd of ``den`` and the content of ``num`` is 1, and ``den`` is 1
for zero), as FLINT's ``fmpq_poly`` does.  Equal polynomials therefore
have equal fields, and sums, products, powers, pseudo-division, gcds and
resultants run on plain ints.  ``coeffs`` (``rows`` for ``BiHomPoly``) is
a cached read-only view of the coefficients as Fractions.  Until ``UniPoly``
goes, it shares that row arithmetic with ``HomPoly`` through one private
base, ``_Rows``; each adds only how it reads its rows.

The form gcd, exact division and squarefree split never leave the integer
rows either: the power of the second variable splits off the ``num``
tuple, and the rest is a heuristic gcd (one integer gcd of the rows'
values at a power of two, confirmed by trial division) or one
pseudo-division on the reversed rows.  The gcd returns the quotients of
its trial division as cofactors, so Yun's loop and ``refine_against``
read ``c / g`` and ``d / g`` off it and divide nothing themselves.  Monic
normalisation divides ``num`` by its leading entry.  By Gauss's lemma a
quotient by a primitive gcd is integral, and a power ``(num^n, den^n)``
is already in lowest terms.  The square root reads the squarefree split's
``(unit, factors)``: the root of the unit times each factor to half its
multiplicity.

The module is also the one home of the exact scalar primitives the other
layers build on, and of their input contract on forms:

* ``rational_sqrt``: square root of a rational, or None;
* ``rational_cubic_roots``: rational roots of a monic cubic, by bisection;
* ``bareiss_det``: fraction-free determinant of an integer matrix;
* ``form_resultant``: the one resultant, the Sylvester determinant of two
  binary forms at their declared degrees; ``resultant`` reads polynomials
  as forms at their actual degrees;
* ``check_forms``: every construction's check that its binary forms share
  one variable pair and have the stated degrees.

A binary form at its declared degree is also the one input of the
discriminant, the squarefree split and the square root, so a root at
infinity is never a special case.  The discriminant of a form ``f`` of
degree ``n >= 2`` is the classical identity (Gelfand-Kapranov-Zelevinsky)

    disc(f) = (-1)^(n(n-1)/2) * res(df/ds, df/dt) / n^(n-2).

Whether the discriminant vanishes needs no determinant: ``is_separable``
asks whether the gcd of the two partials is constant.

Everything is exact; nothing here ever rounds, and nothing reads text:
``ellsurf.scenario`` parses forms and rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Sequence, TypeVar, Union

RationalLike = Union[Fraction, int]


class DegreeTooLow(ValueError):
    """Operation needs a higher-degree input (e.g. discriminant of a constant)."""


class DegreeMismatch(ValueError):
    """Operands have incompatible degrees or variable pairs."""


class ExactDivisionError(ArithmeticError):
    """Division that was promised to be exact left a remainder."""


class ZeroScale(ValueError):
    """A scale factor that must be nonzero is zero: rescaling a bilinear
    form, or a scale or line parameter of the double-quadric data."""


def rat(value: RationalLike) -> Fraction:
    """Coerce an int or a Fraction to a Fraction; text is read by
    ``scenario.parse_rational`` instead, and anything else raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
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
        top = m[k]
        p = top[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[k] = 0
        prev = p
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------


def _lowest(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """``num / den``, for ``den > 0``, divided by gcd(content, den); the
    zero polynomial gets ``den == 1``."""
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(n // g for n in num), den // g


def _fractions_over_one_den(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators; already lowest."""
    fs = _ratseq(values)
    den = lcm(*(c.denominator for c in fs))
    return [c.numerator * (den // c.denominator) for c in fs], den


def _combine(
    a: Sequence[int], da: int, b: Sequence[int], db: int, sign: int
) -> tuple[list[int], int]:
    """Numerators of ``a/da + sign * b/db`` over the denominator lcm(da, db);
    the shorter list is padded with zeros."""
    g = gcd(da, db)
    ma, mb = db // g, sign * (da // g)
    out = [x * ma for x in a]
    out += [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y * mb
    return out, da * ma


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two nonempty integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def _int_pow(num: Sequence[int], den: int, n: int) -> tuple[list[int], int]:
    """``(num^n, den^n)`` by repeated squaring, for ``n >= 0``.

    By Gauss's lemma the content of ``num^n`` is the n-th power of the
    content of ``num``, so a pair in lowest terms stays in lowest terms.
    """
    if n < 0:
        raise DegreeTooLow("negative power")
    out = [1]
    base, k = num, n
    while k:
        if k & 1:
            out = _int_mul(out, base)
        k >>= 1
        if k:
            base = _int_mul(base, base)
    return out, den**n


def _hom_value(num: Sequence[int], big_s: int, big_t: int) -> int:
    """``sum(num[k] * big_s^(d-k) * big_t^k)`` for ``d = len(num) - 1``, by
    Horner's rule."""
    acc, tpow = 0, 1
    for n in num:
        acc = acc * big_s + n * tpow
        tpow *= big_t
    return acc


def _int_derivative(num: Sequence[int]) -> list[int]:
    """The derivative of an ascending integer coefficient list."""
    return [i * n for i, n in enumerate(num)][1:]


def _int_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of integer coefficient lists (ascending order).

    Returns ``(quo, rem, scale)`` with ``scale * a == quo * b + rem`` and
    ``deg rem < deg b``.  Each step scales by ``lc(b) / gcd(top, lc(b))``
    only, so ``scale > 0`` divides ``lc(b)^(deg a - deg b + 1)`` and stays
    1 whenever ``lc(b)`` divides every leading term on the way.  A step
    whose top ``lc(b)`` divides takes its quotient entry from one
    ``divmod`` and computes no gcd.
    """
    rem = list(a)
    d = len(b) - 1
    lc = b[-1]
    quo = [0] * max(0, len(rem) - d)
    scale = 1
    while len(rem) > d:
        k = len(rem) - 1 - d
        top = rem[-1]
        f, r = divmod(top, lc)
        if r:  # lc does not divide top: scale by s = lc / g > 1 first
            g = gcd(top, lc) if lc > 0 else -gcd(top, lc)
            s = lc // g
            rem = [x * s for x in rem]
            quo = [x * s for x in quo]
            scale *= s
            f = top // g
        quo[k] = f
        for i, y in enumerate(b, k):
            rem[i] -= f * y
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem, scale


# ---------------------------------------------------------------------------
# the row arithmetic of UniPoly and HomPoly
# ---------------------------------------------------------------------------


_R = TypeVar("_R", bound="_Rows")


class _Rows:
    """The arithmetic ``UniPoly`` and ``HomPoly`` share: integer numerators
    ``num`` over one positive denominator ``den``, in lowest terms.

    Each subclass says how it reads its rows through two hooks:
    ``_new(num, den)`` makes a value of its own kind from an int list over
    ``den > 0``, in lowest terms, and ``_check(other, adding)`` refuses an
    operand that cannot be added (``adding``) or multiplied.
    """

    num: tuple[int, ...]
    den: int

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def _plus(self: _R, other: _R, sign: int) -> _R:
        self._check(other, True)
        return self._new(*_combine(self.num, self.den, other.num, other.den, sign))

    def __add__(self: _R, other: _R) -> _R:
        return self._plus(other, 1)

    def __sub__(self: _R, other: _R) -> _R:
        return self._plus(other, -1)

    def __neg__(self: _R) -> _R:
        return self._new([-n for n in self.num], self.den)

    def __mul__(self: _R, other: _R | RationalLike) -> _R:
        if isinstance(other, type(self)):
            self._check(other, False)
            return self._new(_int_mul(self.num, other.num), self.den * other.den)
        c = rat(other)
        return self._new([c.numerator * n for n in self.num], c.denominator * self.den)

    def __rmul__(self: _R, other: RationalLike) -> _R:
        return self.__mul__(other)

    def __pow__(self: _R, n: int) -> _R:
        return self._new(*_int_pow(self.num, self.den, n))

    def _over_lead(self: _R, lead: int) -> _R:
        """``self`` over its rational entry ``lead / den``, ``lead != 0``."""
        if lead == self.den:
            return self
        return self._new([n if lead > 0 else -n for n in self.num], abs(lead))


# the variable pair a polynomial is read in when it becomes a form
_AFFINE = ("x", "y")


@dataclass(frozen=True)
class UniPoly(_Rows):
    """Dense univariate polynomial ``sum(num[i] * x^i) / den``.

    ``num`` holds integers with trailing zeros stripped and ``den > 0``
    shares no factor with their content, so equal polynomials have equal
    fields; the zero polynomial is ``num == ()``, ``den == 1``, degree
    ``-1``.  ``coeffs[i]`` is the rational coefficient of ``x^i``.
    """

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def _new(num: list[int], den: int) -> UniPoly:
        while num and num[-1] == 0:
            num.pop()
        return UniPoly(*_lowest(num, den))

    def _check(self, other: UniPoly, adding: bool) -> None:
        """Any two polynomials add and multiply."""

    @staticmethod
    def of(*coeffs: RationalLike) -> UniPoly:
        return UniPoly.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[RationalLike]) -> UniPoly:
        return UniPoly._new(*_fractions_over_one_den(coeffs))

    @staticmethod
    def zero() -> UniPoly:
        return UniPoly(())

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.degree else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        xv = rat(x)
        # with x = p/q the value is sum(num[i] * p^i * q^(n-i)) / (den * q^n)
        acc = _hom_value(self.num[::-1], xv.numerator, xv.denominator)
        return Fraction(acc, self.den * xv.denominator**self.degree)

    def derivative(self) -> UniPoly:
        return UniPoly._new(_int_derivative(self.num), self.den)

    def divmod(self, other: UniPoly) -> tuple[UniPoly, UniPoly]:
        """Quotient and remainder over Q.

        With ``self = A/da``, ``other = B/db`` and ``scale * A = Q*B + R``
        from the integer pseudo-division, the quotient is
        ``Q * db / (scale * da)`` and the remainder ``R / (scale * da)``.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem, scale = _int_divmod(self.num, other.num)
        den = scale * self.den
        return UniPoly._new([x * other.den for x in quo], den), UniPoly._new(rem, den)

    def monic(self) -> UniPoly:
        """``self`` over its leading coefficient; the zero polynomial is kept."""
        return self._over_lead(self.num[-1]) if self.num else self


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def _int_primitive(coeffs: Sequence[int]) -> list[int]:
    """``coeffs`` over their content, as a new list with the signs kept:
    ``[]`` for a zero list, and a plain copy when the content is 1."""
    g = gcd(*coeffs)
    if g == 0:
        return []
    if g == 1:
        return list(coeffs)
    return [v // g for v in coeffs]


def _xi_candidate(a: Sequence[int], b: Sequence[int], k: int) -> list[int]:
    """The heuristic gcd's candidate at ``xi = 2^k``: the primitive part,
    with a positive lead, of the polynomial whose coefficients are the
    symmetric base-``xi`` digits (in ``(-xi/2, xi/2]``) of
    ``gcd(a(xi), b(xi))``.  The two values must not both be zero."""
    values = []
    for row in (a, b):
        acc = 0
        for x in reversed(row):
            acc = (acc << k) + x
        values.append(acc)
    gamma = gcd(*values)
    xi, half = 1 << k, 1 << (k - 1)
    digits = []
    # len // k + 1 digits hold gamma and the carry out of its top digit
    for _ in range(gamma.bit_length() // k + 1):
        d = gamma & (xi - 1)
        if d > half:
            d -= xi
        digits.append(d)
        gamma = (gamma - d) >> k
    if digits[-1] == 0:  # the top digit is at most half: nothing carried
        digits.pop()
    h = _int_primitive(digits)
    return h if h[-1] > 0 else [-x for x in h]


def _xi_start(a: Sequence[int], b: Sequence[int]) -> int:
    """The first ``k`` of the heuristic gcd of the primitive, nonconstant
    lists ``a`` and ``b``: the bit length of ``2 * min(|a|_inf, |b|_inf) + 1``."""
    return (2 * min(max(map(abs, a)), max(map(abs, b))) + 1).bit_length()


def _xi_bits(a: Sequence[int], b: Sequence[int]) -> tuple[int, int]:
    """``(k, k_max)`` for the primitive, nonconstant lists ``a`` and ``b``:
    the first ``k`` of the heuristic gcd (``_xi_start``), and one at which
    its candidate is the gcd (see ``_int_gcd``)."""
    n, m = len(a) - 1, len(b) - 1
    na, nb = max(map(abs, a)), max(map(abs, b))
    # |a|_2 <= sqrt(n + 1) * |a|_inf < 2^la
    la = na.bit_length() + ((n + 1).bit_length() + 1) // 2
    lb = nb.bit_length() + ((m + 1).bit_length() + 1) // 2
    k_max = m * (n + la) + n * (m + lb) + min(n + la, m + lb) + 2
    return _xi_start(a, b), k_max


def _xi_trial(
    a: Sequence[int], b: Sequence[int], pa: list[int], pb: list[int], k: int
) -> tuple[list[int], list[int], list[int]] | None:
    """``_int_gcd(a, b)`` from the candidate at ``xi = 2^k`` of the
    primitive parts ``pa`` and ``pb``, or None when a trial division
    refuses it: a constant candidate is the gcd ``[1]``, and a nonconstant
    one is the gcd iff it divides ``a`` and ``b``, whose quotients are the
    cofactors."""
    h = _xi_candidate(pa, pb, k)
    if len(h) == 1:
        return h, list(a), list(b)
    qa, rem, _ = _int_divmod(a, h)
    if not rem:
        qb, rem, _ = _int_divmod(b, h)
        if not rem:
            return h, qa, qb
    return None


def _int_gcd(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """``(h, a / h, b / h)`` for two integer coefficient lists (ascending
    order), one of which may be zero: ``h`` is their primitive gcd, with a
    positive leading coefficient, and ``a == h * (a / h)``,
    ``b == h * (b / h)`` exactly.  A nonzero list has a nonzero top; the
    cofactor of a zero input is ``[]``.

    The heuristic gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7
    (1989) 31-48) evaluates both inputs at ``xi = 2^k`` and reads the
    integer gcd of the two values back as a polynomial (``_xi_candidate``),
    so the work is one C integer gcd.  For the primitive parts ``a'`` and
    ``b'``, nonconstant:

    * ``k`` starts as the bit length of ``2 * min(|a'|_inf, |b'|_inf) + 1``,
      so ``xi >= 2 * min + 2``.  By Cauchy's bound every root of the input
      with the smaller norm lies below ``xi / 2`` in absolute value, so
      every nonconstant integer factor ``F`` of it has ``|F(xi)| > xi / 2``.
    * The true gcd ``G`` divides both values, so ``G(xi)`` divides their gcd
      ``gamma``.  A constant candidate means ``0 < gamma <= xi / 2``, so
      ``G`` is constant and the answer is ``[1]``, with no division.
    * A nonconstant candidate ``h`` is accepted iff it divides ``a`` and
      ``b``.  Then ``G = h * Q``, and ``h(xi) * Q(xi)`` divides
      ``gamma = cont * h(xi)``, whose digit content is at most ``xi / 2``;
      so ``|Q(xi)| <= xi / 2``, ``Q`` is a unit, and ``h`` is the gcd.
    * A rejected candidate doubles ``k``, up to the ``k_max`` of
      ``_xi_bits``, where the candidate is the gcd.  With ``a' = G * A`` and
      ``b' = G * B``, ``gamma = c * G(xi)`` where ``c = gcd(A(xi), B(xi))``
      divides ``res(A, B)``, which is not zero.  Mignotte's bound gives
      ``|A|_2 < 2^(n + L_a)`` for ``n = deg a`` and any ``L_a`` with
      ``|a'|_2 < 2^L_a``; likewise for ``B`` and ``G``.  Hadamard's bound
      gives ``|c| < 2^(m (n + L_a) + n (m + L_b))`` for ``m = deg b``.  So
      ``|c * G|_inf < xi / 4`` at ``k_max``: the digits of ``gamma`` are the
      coefficients of ``c * G``, and its primitive part is ``G``.
    * The bound is computed only after the first candidate is refused, so a
      first ``k`` at or past ``k_max`` would still be accepted only by its
      trial division, which does accept it.

    The cofactors cost nothing more: the trial division that accepts ``h``
    runs on ``a`` and ``b`` themselves, and its quotients are exact, with
    scale 1, since a primitive divisor of an integer list leaves an
    integral quotient (Gauss's lemma).  A constant gcd leaves ``a`` and
    ``b`` as they are, and a zero input leaves the other's signed content.
    Only the ``k_max`` candidate, accepted without a trial, divides them
    afterwards.
    """
    pa, pb = _int_primitive(a), _int_primitive(b)
    if not pa or not pb:
        h = pa or pb
        if h[-1] < 0:
            h = [-x for x in h]
        return h, [a[-1] // h[-1]] if pa else [], [b[-1] // h[-1]] if pb else []
    if len(pa) == 1 or len(pb) == 1:
        return [1], list(a), list(b)
    k = _xi_start(pa, pb)
    found = _xi_trial(a, b, pa, pb, k)
    if found:
        return found
    k_max = _xi_bits(pa, pb)[1]
    for _ in range(k_max.bit_length()):  # k doubles past k_max within as many steps
        k *= 2
        if k >= k_max:
            break
        found = _xi_trial(a, b, pa, pb, k)
        if found:
            return found
    h = _xi_candidate(pa, pb, k_max)
    return h, _int_divmod(a, h)[0], _int_divmod(b, h)[0]


def gcd_poly(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q.

    ``gcd_poly(0, 0)`` is the zero polynomial.
    """
    if p.is_zero and q.is_zero:
        return UniPoly.zero()
    return UniPoly(tuple(_int_gcd(p.num, q.num)[0])).monic()


# ---------------------------------------------------------------------------
# binary forms with declared degree
# ---------------------------------------------------------------------------


def _zero_row(degree: int) -> list[int]:
    """The numerator of the zero form of ``degree``; a negative degree
    raises ``DegreeTooLow``."""
    if degree < 0:
        raise DegreeTooLow(f"a form has a nonnegative degree, not {degree}")
    return [0] * (degree + 1)


def _pair(vars: Sequence[str]) -> tuple[str, str]:
    """The variable pair of a form: two distinct names."""
    pair = tuple(vars)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise DegreeMismatch(f"a form needs two distinct variables, got {pair}")
    return pair


@dataclass(frozen=True)
class HomPoly(_Rows):
    """Binary form ``sum(num[k] * vars[0]^(d-k) * vars[1]^k) / den`` of
    declared degree ``d = len(num) - 1``.

    ``num`` holds integers and ``den > 0`` shares no factor with their
    content, so equal forms have equal fields; all-zero numerators give the
    zero form of that degree (with ``den == 1``).  ``coeffs[k]`` is the
    rational coefficient of ``vars[0]^(d-k) * vars[1]^k``.
    """

    vars: tuple[str, str]
    num: tuple[int, ...]
    den: int = 1

    def _new(self, num: list[int], den: int) -> HomPoly:
        return HomPoly(self.vars, *_lowest(num, den))

    def _check(self, other: HomPoly, adding: bool = False) -> None:
        if self.vars != other.vars:
            raise DegreeMismatch(f"variable pairs differ: {self.vars} vs {other.vars}")
        if adding and self.degree != other.degree:
            raise DegreeMismatch(f"cannot add forms of degrees {self.degree} and {other.degree}")

    @staticmethod
    def of(vars: tuple[str, str], coeffs: Iterable[RationalLike]) -> HomPoly:
        pair = _pair(vars)
        num, den = _fractions_over_one_den(coeffs)
        if not num:
            raise DegreeTooLow("a form needs at least one coefficient")
        return HomPoly(pair, tuple(num), den)

    @staticmethod
    def zero(vars: tuple[str, str], degree: int) -> HomPoly:
        return HomPoly(_pair(vars), tuple(_zero_row(degree)))

    @staticmethod
    def constant(vars: tuple[str, str], c: RationalLike) -> HomPoly:
        return HomPoly.of(vars, [c])

    @staticmethod
    def var_power(vars: tuple[str, str], which: int, degree: int) -> HomPoly:
        """``vars[which]^degree``; ``which`` is 0 or 1."""
        if which not in (0, 1):
            raise DegreeMismatch(f"a form has variables 0 and 1, not {which}")
        num = _zero_row(degree)
        num[which * degree] = 1
        return HomPoly(_pair(vars), tuple(num))

    def __call__(self, s: RationalLike, t: RationalLike) -> Fraction:
        sv, tv = rat(s), rat(t)
        # with s = a/b and t = c/e the value is
        # sum(num[k] * (a*e)^(d-k) * (c*b)^k) / (den * (b*e)^d)
        acc = _hom_value(
            self.num, sv.numerator * tv.denominator, tv.numerator * sv.denominator
        )
        scale = sv.denominator * tv.denominator
        return Fraction(acc, self.den * scale**self.degree)

    def swap(self) -> HomPoly:
        """Exchange the two variables (coefficients reverse)."""
        return HomPoly((self.vars[1], self.vars[0]), self.num[::-1], self.den)

    def rename(self, vars: tuple[str, str]) -> HomPoly:
        return HomPoly(_pair(vars), self.num, self.den)

    def substitute(self, f: HomPoly, g: HomPoly) -> HomPoly:
        """Plug forms (f, g) of one common degree in for the variables."""
        flat, den = _substituted((self.num,), f, g)
        return f._new(flat, self.den * den)

    def second_var_multiplicity(self) -> int:
        """Multiplicity of the root [1:0], i.e. the power of ``vars[1]``."""
        for k, n in enumerate(self.num):
            if n:
                return k
        raise DegreeTooLow("zero form has no root multiplicities")

    def text(self) -> str:
        d = self.degree
        chunks: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            powers = ((self.vars[0], d - k), (self.vars[1], k))
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e != 0)
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
        return " ".join(chunks) if chunks else "0"


def check_forms(forms: Sequence[HomPoly], degrees: Sequence[int], what: str) -> None:
    """The input contract of every construction on binary forms: unless
    ``forms`` share one variable pair and have the ``degrees``, in order,
    raise ``DegreeMismatch`` naming the construction ``what``."""
    # list comprehensions, not generators: this runs on every model built
    if [form.vars for form in forms] != [forms[0].vars] * len(forms):
        raise DegreeMismatch(f"{what} needs forms on one variable pair")
    got = tuple([form.degree for form in forms])
    if got != tuple(degrees):
        raise DegreeMismatch(f"{what} needs degrees {tuple(degrees)}, got {got}")


def _substituted(
    rows: Sequence[Sequence[int]], f: HomPoly, g: HomPoly
) -> tuple[list[int], int]:
    """Row-major numerators, over one common denominator, of every row
    ``r`` read as the form ``sum(r[k] * f^(d-k) * g^k)``, ``d = len(r) - 1``.

    ``f`` and ``g`` must share a variable pair and a degree; the powers
    ``f^(d-k) * g^k`` are built once for all rows, over the denominator
    ``(den f * den g)^d``.
    """
    check_forms((f, g), (f.degree, f.degree), "a substitution")
    d = len(rows[0]) - 1
    fpows, gpows = [[1]], [[1]]
    for _ in range(d):
        fpows.append(_int_mul(fpows[-1], f.num))
        gpows.append(_int_mul(gpows[-1], g.num))
    pieces = []
    for k in range(d + 1):
        scale = f.den**k * g.den ** (d - k)
        pieces.append([n * scale for n in _int_mul(fpows[d - k], gpows[k])])
    width = len(pieces[0])
    flat = [
        sum(c * piece[i] for c, piece in zip(row, pieces))
        for row in rows
        for i in range(width)
    ]
    return flat, (f.den * g.den) ** d


def homogenize(p: UniPoly, vars: tuple[str, str], degree: int) -> HomPoly:
    """Lift to a binary form of the declared degree (>= actual degree)."""
    if degree < p.degree:
        raise DegreeMismatch(
            f"declared degree {degree} below actual degree {p.degree}"
        )
    num = (0,) * (degree - p.degree) + p.num[::-1]
    return HomPoly(_pair(vars), num, p.den)


def form_resultant(p: HomPoly, q: HomPoly) -> Fraction:
    """Resultant of two binary forms at their declared degrees.

    This is the determinant of the Sylvester matrix of the coefficient
    rows, so it sees roots at infinity: for forms of positive degree it
    vanishes exactly when they share a zero on the projective line (every
    point is a zero of the zero form).  A constant ``c`` against a form of
    degree ``n`` gives ``c^n``.
    """
    p._check(q)
    m, n = p.degree, q.degree
    rows = [[0] * i + list(p.num) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(q.num) + [0] * (m - 1 - i) for i in range(m)]
    return Fraction(bareiss_det(rows), p.den**n * q.den**m)


def resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Resultant of two polynomials at their actual degrees.

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
    return form_resultant(
        homogenize(p, _AFFINE, p.degree), homogenize(q, _AFFINE, q.degree)
    )


def form_partials(f: HomPoly) -> tuple[HomPoly, HomPoly]:
    """``(df/ds, df/dt)`` of a form of declared degree ``n >= 1``, each of
    declared degree ``n - 1``; a constant raises ``DegreeTooLow``."""
    if f.degree < 1:
        raise DegreeTooLow("a constant form has no partials of declared degree")
    d_s, d_t = _int_derivative(f.num[::-1])[::-1], _int_derivative(f.num)
    return f._new(d_s, f.den), f._new(d_t, f.den)


def form_discriminant(f: HomPoly) -> Fraction:
    """Discriminant of a binary form at its declared degree ``n >= 2``:
    ``(-1)^(n(n-1)/2) * form_resultant(df/ds, df/dt) / n^(n-2)``.

    The identity holds for every coefficient vector, so a root at infinity
    needs no rule of its own (one of multiplicity >= 2 makes the value 0).
    """
    n = f.degree
    if n < 2:
        raise DegreeTooLow("form discriminant needs declared degree >= 2")
    if f.is_zero:
        raise DegreeTooLow("zero form has no discriminant")
    res = form_resultant(*form_partials(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / n ** (n - 2)


def discriminant_form(p: UniPoly, degree: int) -> Fraction:
    """Discriminant of ``p`` read as a binary form of declared ``degree``."""
    # before homogenize, so a low declared degree is DegreeTooLow even when
    # it is also below the actual degree
    if degree < 2:
        raise DegreeTooLow("form discriminant needs declared degree >= 2")
    return form_discriminant(homogenize(p, _AFFINE, degree))


def _affine_row(f: HomPoly) -> tuple[int, tuple[int, ...]]:
    """``(e, row)`` for a nonzero form ``f = t^e * g(s, t)``: ``e`` is the
    power of ``vars[1]`` and ``row`` the numerators of ``g(s, 1)`` in
    ascending powers of ``s``, with a nonzero top entry."""
    e = f.second_var_multiplicity()
    return e, f.num[e:][::-1]


def _monic_form(vars: tuple[str, str], e: int, row: Sequence[int]) -> HomPoly:
    """The form with ``vars[1]``-power ``e`` and affine row ``row`` (the
    inverse of ``_affine_row``) over its leading entry, so monic in the
    first variable."""
    lead = row[-1]
    num = [0] * e + [x if lead > 0 else -x for x in reversed(row)]
    return HomPoly(vars, *_lowest(num, abs(lead)))


def divexact_form(p: HomPoly, f: HomPoly) -> HomPoly:
    """The form ``p / f``; raises ``ExactDivisionError`` on a remainder.

    The powers of ``vars[1]`` divide first; the rest is one integer
    pseudo-division of the affine rows, whose quotient has degree
    ``p.degree - f.degree`` once it is exact.
    """
    p._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero form")
    if p.is_zero:
        return HomPoly.zero(p.vars, max(p.degree - f.degree, 0))
    (ep, a), (ef, b) = _affine_row(p), _affine_row(f)
    if ep >= ef:
        quo, rem, scale = _int_divmod(a, b)
        if not rem:
            num = [0] * (ep - ef) + [x * f.den for x in reversed(quo)]
            return p._new(num, scale * p.den)
    raise ExactDivisionError("form division left a remainder")


def gcd_form(p: HomPoly, q: HomPoly) -> HomPoly:
    """Gcd of binary forms, normalized monic in the first variable.

    The degree of the result is the actual gcd degree, not padded: the
    smaller power of ``vars[1]`` times the gcd of the affine rows, which
    is primitive and so already in lowest terms over its leading entry.
    The gcd's cofactors are not read.
    """
    p._check(q)
    if p.is_zero and q.is_zero:
        return HomPoly.zero(p.vars, 0)
    if p.is_zero or q.is_zero:
        return _monic_form(p.vars, *_affine_row(q if p.is_zero else p))
    (ep, a), (eq, b) = _affine_row(p), _affine_row(q)
    return _monic_form(p.vars, min(ep, eq), _int_gcd(a, b)[0])


def is_separable(f: HomPoly) -> bool:
    """Whether a form has no repeated linear factor at its declared degree
    (a double root at infinity included): the zero test of
    ``form_discriminant`` without the resultant.

    By the Euler relation ``n * f = s * df/ds + t * df/dt`` a common zero
    of the two partials is a zero of ``f`` where its gradient vanishes,
    that is a repeated root, and conversely; so ``f`` is separable exactly
    when the gcd of its partials is constant.  The zero form is not
    separable; a nonzero form of degree 0 or 1 is.
    """
    if f.is_zero:
        return False
    if f.degree < 2:
        return True
    return gcd_form(*form_partials(f)).degree == 0


_T = TypeVar("_T")


def sort_by_form(items: list[_T], form: Callable[[_T], HomPoly]) -> None:
    """Sort ``items`` in place by the degree, then the coefficients, of
    ``form(item)``, on integers: each numerator row is scaled to the lcm L
    of the forms' denominators, and n / den < n' / den' exactly when
    n (L // den) < n' (L // den'), so the order is that of the Fraction
    tuples ``coeffs``, and no form builds them."""
    scale = lcm(*(form(item).den for item in items))

    def key(item: _T) -> tuple[int, list[int]]:
        f = form(item)
        k = scale // f.den
        return f.degree, [n * k for n in f.num]

    items.sort(key=key)


def squarefree_split(f: HomPoly) -> tuple[Fraction, tuple[tuple[HomPoly, int], ...]]:
    """Yun decomposition of a nonzero binary form; exact over Q.

    Returns ``(unit, factors)`` with ``f == unit * product(factor^m)`` over
    the ``(factor, m)`` pairs, the factors squarefree, pairwise coprime and
    monic in the first variable, as sympy's ``sqf_list`` returns them.

    Yun's loop runs on the integer affine row (``vars[1] = 1``), where no
    multiplicity exceeds its degree; the power of ``vars[1]`` is the
    factor at infinity.  It is the cofactor form of the loop: each pass
    reads ``g = gcd(c, d)``, ``c / g`` and ``d / g`` off one ``_int_gcd``
    and divides nothing itself, so the only pseudo-divisions are the
    gcd's trial divisions.  Each factor is made monic as ``gcd_form``
    makes it.  Factors are sorted by degree, then coefficients.
    """
    if f.is_zero:
        raise DegreeTooLow("zero form has no squarefree decomposition")
    e, row = _affine_row(f)
    factors = [(HomPoly.var_power(f.vars, 1, 1), e)] if e else []
    # pass 0 divides gcd(c, c') out of c; pass i >= 1 splits off the factor
    # a_i of multiplicity i.  d is zero (then a_i is c itself) or has degree
    # deg c - 1, its top being lc(c) * sum((j - i) * deg a_j) over j > i;
    # so after the gcd d and c' have the same length, or d is zero and c a
    # constant, and d - c' is taken entry by entry
    c, d = list(row), _int_derivative(row)
    for i in range(len(row)):
        g, c, d = _int_gcd(c, d)
        if i and len(g) > 1:
            factors.append((_monic_form(f.vars, 0, g), i))
        d = [x - y for x, y in zip(d, _int_derivative(c))]
        if len(c) == 1:
            break
    sort_by_form(factors, lambda fm: fm[0])
    return Fraction(row[-1], f.den), tuple(factors)


def refine_against(f: HomPoly, q: HomPoly) -> list[tuple[HomPoly, int | None]]:
    """Split the squarefree form ``f`` by the valuations of its places in ``q``.

    Returns ``(piece, k)`` pairs: the pieces are coprime, monic in the
    first variable, multiply to ``f`` up to a unit, and every place of
    ``piece`` divides ``q`` exactly ``k`` times.  The zero ``q`` gives
    ``[(f, None)]`` (every place divides it to any power); the zero ``f``
    raises ``DegreeTooLow``.  Each pass that does not stop divides a factor
    of degree >= 1 out of ``r``, so at most ``deg q + 1`` passes are made.

    Pass ``k`` takes ``d = gcd(g, r)`` (``g = f`` and ``r = q`` at first),
    ``g / d`` and ``r / d`` from one ``_int_gcd`` of the affine rows; the
    smaller power of ``vars[1]`` goes to ``d``.  The piece ``g / d`` is
    built from its row made monic, and ``d`` and ``r / d`` carry on as
    rows: a constant factor of ``r`` changes neither the gcd nor the next
    ``g / d``, so nothing else is divided.

    The place at infinity alone, ``f = c * vars[1]`` (a constant affine row
    and one power of ``vars[1]``), takes no gcd: its valuation in ``q`` is
    the power of ``vars[1]`` in ``q``, and its piece is ``vars[1]``.
    """
    f._check(q)
    if q.is_zero:
        return [(f, None)]
    (eg, g), (er, r) = _affine_row(f), _affine_row(q)
    if eg == 1 and len(g) == 1:
        return [(HomPoly.var_power(f.vars, 1, 1), er)]
    pieces: list[tuple[HomPoly, int | None]] = []
    for k in range(q.degree + 1):
        d, piece, r = _int_gcd(g, r)
        ed = min(eg, er)
        if eg > ed or len(piece) > 1:
            pieces.append((_monic_form(f.vars, eg - ed, piece), k))
        if ed == 0 and len(d) == 1:
            break
        eg, g, er = ed, d, er - ed
    return pieces


def form_sqrt(f: HomPoly) -> HomPoly | None:
    """Exact square root of a binary form (declared half degree) with a
    positive leading coefficient in the first variable, or None: a nonzero
    form is a square exactly when its unit is a rational square and every
    multiplicity of ``squarefree_split`` is even."""
    if f.degree % 2:
        return None
    if f.is_zero:
        return HomPoly.zero(f.vars, f.degree // 2)
    unit, factors = squarefree_split(f)
    lead = rational_sqrt(unit)
    if lead is None or any(m % 2 for _, m in factors):
        return None
    root = HomPoly.constant(f.vars, lead)
    for factor, m in factors:
        root = root * factor ** (m // 2)
    return root


# ---------------------------------------------------------------------------
# bidegree forms
# ---------------------------------------------------------------------------


def _bihom(
    vars1: tuple[str, str], vars2: tuple[str, str], flat: Sequence[int], width: int, den: int
) -> BiHomPoly:
    """The bidegree form with row-major numerators ``flat`` (rows of
    ``width`` entries) over ``den > 0``, brought to lowest terms."""
    num, den = _lowest(flat, den)
    rows = tuple(num[k : k + width] for k in range(0, len(num), width))
    return BiHomPoly(vars1, vars2, rows, den)


def _row_width(rows: Sequence[Sequence[object]]) -> int:
    """The common length of the coefficient rows of a bidegree form."""
    width = len(rows[0]) if rows else 0
    if width == 0 or any(len(row) != width for row in rows):
        raise DegreeMismatch("a bidegree form needs equal nonempty rows")
    return width


@dataclass(frozen=True)
class BiHomPoly:
    """Form ``sum(num[i][j] * m_ij) / den`` of bidegree ``(d1, d2)`` in two
    separate variable pairs, with the monomial
    ``m_ij = vars1[0]^(d1-i) vars1[1]^i * vars2[0]^(d2-j) vars2[1]^j``.

    ``num`` holds ``d1 + 1`` rows of ``d2 + 1`` integers and ``den > 0``
    shares no factor with their content, so equal forms have equal fields.
    ``rows[i][j]`` is the rational coefficient of ``m_ij``.
    """

    vars1: tuple[str, str]
    vars2: tuple[str, str]
    num: tuple[tuple[int, ...], ...]
    den: int = 1

    @staticmethod
    def from_num(
        vars1: tuple[str, str],
        vars2: tuple[str, str],
        num: Sequence[Sequence[int]],
        den: int = 1,
    ) -> BiHomPoly:
        """The form with integer rows ``num`` over ``den > 0``, brought to
        lowest terms; no entry passes through a Fraction."""
        width = _row_width(num)
        if den <= 0:
            raise ValueError("the denominator of a form must be positive")
        return _bihom(_pair(vars1), _pair(vars2), [n for row in num for n in row], width, den)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(n, den) for n in row) for row in self.num)

    @property
    def deg1(self) -> int:
        return len(self.num) - 1

    @property
    def deg2(self) -> int:
        return len(self.num[0]) - 1

    @property
    def is_symmetric(self) -> bool:
        """Whether the coefficient matrix equals its transpose, i.e. the
        form is unchanged when the two pairs exchange their values."""
        return self.num == tuple(zip(*self.num))

    def _flat(self) -> list[int]:
        return [n for row in self.num for n in row]

    def _check(self, other: BiHomPoly) -> None:
        if self.vars1 != other.vars1 or self.vars2 != other.vars2:
            raise DegreeMismatch("variable pairs differ")

    def _plus(self, other: BiHomPoly, sign: int) -> BiHomPoly:
        self._check(other)
        if (self.deg1, self.deg2) != (other.deg1, other.deg2):
            raise DegreeMismatch("cannot add forms of different bidegrees")
        flat, den = _combine(self._flat(), self.den, other._flat(), other.den, sign)
        return _bihom(self.vars1, self.vars2, flat, self.deg2 + 1, den)

    def __add__(self, other: BiHomPoly) -> BiHomPoly:
        return self._plus(other, 1)

    def __sub__(self, other: BiHomPoly) -> BiHomPoly:
        return self._plus(other, -1)

    def __mul__(self, other: BiHomPoly | RationalLike) -> BiHomPoly:
        if isinstance(other, BiHomPoly):
            self._check(other)
            # rows padded to the product's width multiply as one long
            # polynomial: entry (i, j) sits at i * width + j and j + l
            # never carries into the next row
            width = self.deg2 + other.deg2 + 1
            a = [n for row in self.num for n in row + (0,) * other.deg2]
            b = [n for row in other.num for n in row + (0,) * self.deg2]
            flat = _int_mul(a, b)[: (self.deg1 + other.deg1 + 1) * width]
            return _bihom(self.vars1, self.vars2, flat, width, self.den * other.den)
        c = rat(other)
        flat = [c.numerator * n for n in self._flat()]
        return _bihom(self.vars1, self.vars2, flat, self.deg2 + 1, c.denominator * self.den)

    def __rmul__(self, other: RationalLike) -> BiHomPoly:
        return self.__mul__(other)

    def __call__(
        self,
        s: RationalLike,
        t: RationalLike,
        u: RationalLike,
        v: RationalLike,
    ) -> Fraction:
        return self.specialize_pair2(u, v)(s, t)

    def pair2_coefficient(self, j: int) -> HomPoly:
        """Coefficient of ``vars2[0]^(d2-j) vars2[1]^j`` as a form in vars1."""
        return HomPoly(self.vars1, *_lowest([row[j] for row in self.num], self.den))

    def specialize_pair2(self, u: RationalLike, v: RationalLike) -> HomPoly:
        """The form in vars1 left when the second pair takes the value (u, v)."""
        uv, vv = rat(u), rat(v)
        big_u, big_v = uv.numerator * vv.denominator, vv.numerator * uv.denominator
        num = [_hom_value(row, big_u, big_v) for row in self.num]
        scale = (uv.denominator * vv.denominator) ** self.deg2
        return HomPoly(self.vars1, *_lowest(num, self.den * scale))

    def diagonal(self) -> HomPoly:
        """The restriction to ``vars2 = vars1``, of degree d1 + d2 in vars1."""
        out = [0] * (self.deg1 + self.deg2 + 1)
        for i, row in enumerate(self.num):
            for k, n in enumerate(row, i):
                out[k] += n
        return HomPoly(self.vars1, *_lowest(out, self.den))

    def substitute_pair2(self, f: HomPoly, g: HomPoly) -> BiHomPoly:
        """Plug forms (f, g) of one common degree in for the second pair."""
        flat, den = _substituted(self.num, f, g)
        return _bihom(self.vars1, f.vars, flat, self.deg2 * f.degree + 1, self.den * den)


def tensor_forms(p: HomPoly, q: HomPoly) -> BiHomPoly:
    """Outer product: a form in ``vars1`` times a form in ``vars2``."""
    flat = [a * b for a in p.num for b in q.num]
    return _bihom(p.vars, q.vars, flat, len(q.num), p.den * q.den)
