"""Independent fiber-type oracle at the origin of the affine base line.

Classifies the fiber of y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) over t = 0
by the classical reduction-type recursion, worked directly in Q[t]: find
the singular point of the reduced cubic, separate node from cusp by the
gcd of the cubic with its derivative, walk the valuation gates, resolve
the residual-cubic double-root case through an inverse quadratic twist,
and restart after a (2, 3)-rescale when the model is not minimal.

This is the test suite's oracle against the valuation-table classifier in
the package; it shares no classification logic with it.  ``form_multiplicities``
is the matching oracle for the valuations themselves, by sympy factoring.
"""

from __future__ import annotations

import sympy as sp

t, X = sp.symbols("t X")


def form_multiplicities(coeffs) -> dict | None:
    """Irreducible factors of the binary form sum(coeffs[k] u^(d-k) v^k),
    each mapped to its multiplicity: the affine ones as monic polynomials
    in ``t`` (read as u/v), the place v = 0 as "infinity".  None for the
    zero form."""
    if not any(coeffs):
        return None
    d = len(coeffs) - 1
    affine = sum(sp.Rational(c) * t ** (d - k) for k, c in enumerate(coeffs))
    _unit, factors = sp.Poly(affine, t, domain="QQ").factor_list()
    found = {g.monic().as_expr(): m for g, m in factors}
    at_infinity = next(k for k, c in enumerate(coeffs) if c)
    if at_infinity:
        found["infinity"] = at_infinity
    return found


def _poly(expr) -> sp.Poly:
    return sp.Poly(sp.expand(expr), t, domain="QQ")


def _val(expr) -> int | None:
    """t-adic valuation; None for the zero polynomial."""
    p = _poly(expr)
    if p.is_zero:
        return None
    coeffs = p.all_coeffs()[::-1]
    for k, c in enumerate(coeffs):
        if c != 0:
            return k
    raise AssertionError("nonzero polynomial with no nonzero coefficient")


def _val_at_least(expr, k: int) -> bool:
    v = _val(expr)
    return v is None or v >= k


def _coeff(expr, k: int):
    p = _poly(expr)
    coeffs = p.all_coeffs()[::-1]
    return coeffs[k] if k < len(coeffs) else sp.Integer(0)


def _divt(expr, k: int):
    if sp.expand(expr) == 0:
        return sp.Integer(0)
    q = sp.exquo(_poly(expr), _poly(t ** k))
    return q.as_expr()


def _shift(a2, a4, a6, u):
    """Coefficients after x -> x + u."""
    return (
        sp.expand(a2 + 3 * u),
        sp.expand(a4 + 2 * a2 * u + 3 * u ** 2),
        sp.expand(a6 + a4 * u + a2 * u ** 2 + u ** 3),
    )


def tate_fiber_at_origin(a2, a4, a6) -> tuple[str, int]:
    """Fiber label over t = 0 and the number of (2,3)-rescales applied.

    Inputs are sympy expressions (or numbers) polynomial in ``t``; the
    discriminant must not vanish identically.
    """
    a2, a4, a6 = sp.sympify(a2), sp.sympify(a4), sp.sympify(a6)
    reductions = 0
    while True:
        c4 = 16 * (a2 ** 2 - 3 * a4)
        c6 = -32 * (2 * a2 ** 3 - 9 * a2 * a4 + 27 * a6)
        delta = sp.expand((c4 ** 3 - c6 ** 2) / 1728)
        n = _val(delta)
        if n is None:
            raise ValueError("discriminant vanishes identically")
        if n == 0:
            return "I0", reductions

        cubic = sp.Poly(
            X ** 3
            + a2.subs(t, 0) * X ** 2
            + a4.subs(t, 0) * X
            + a6.subs(t, 0),
            X,
            domain="QQ",
        )
        g = sp.gcd(cubic, cubic.diff(X)).monic()
        if g.degree() == 0:
            raise AssertionError("positive delta valuation but smooth reduction")
        if g.degree() == 1:
            # node: multiplicative reduction
            return f"I{n}", reductions

        # cusp: move the triple root of the reduced cubic to the origin
        x0 = -g.all_coeffs()[1] / 2
        a2, a4, a6 = _shift(a2, a4, a6, x0)

        if not _val_at_least(a6, 2):
            return "II", reductions
        b8 = 4 * a2 * a6 - a4 ** 2
        if not _val_at_least(b8, 3):
            return "III", reductions
        if not _val_at_least(a6, 3):
            return "IV", reductions

        residual = sp.Poly(
            X ** 3 + _coeff(a2, 1) * X ** 2 + _coeff(a4, 2) * X + _coeff(a6, 3),
            X,
            domain="QQ",
        )
        gr = sp.gcd(residual, residual.diff(X)).monic()
        if gr.degree() == 0:
            return "I0*", reductions
        if gr.degree() == 1:
            # double root: the t-twisted-down model has a node over t = 0
            r = -gr.all_coeffs()[1]
            a2, a4, a6 = _shift(a2, a4, a6, r * t)
            label, sub_reductions = tate_fiber_at_origin(
                _divt(a2, 1), _divt(a4, 2), _divt(a6, 3)
            )
            assert sub_reductions == 0 and label[0] == "I" and label[1:].isdigit()
            m = int(label[1:])
            assert m >= 1
            return f"I{m}*", reductions

        # triple root of the residual cubic
        r = -gr.all_coeffs()[1] / 2
        a2, a4, a6 = _shift(a2, a4, a6, r * t)
        if _val(a6) == 4:
            return "IV*", reductions
        if _val(a4) == 3:
            return "III*", reductions
        if _val(a6) == 5:
            return "II*", reductions
        a2, a4, a6 = _divt(a2, 2), _divt(a4, 4), _divt(a6, 6)
        reductions += 1
