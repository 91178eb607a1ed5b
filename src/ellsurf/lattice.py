"""Integer quadratic forms: Gram matrices, discriminant groups, and the
classification invariants of even 2-elementary lattices.

The isomorphism oracle implemented here is deliberately narrow: two even
indefinite 2-elementary lattices are isometric exactly when their rank,
signature, length, and parity agree, so ``nikulin_equivalent`` compares
those invariants and refuses anything outside that hypothesis class.
All arithmetic is exact (integers and Fractions throughout).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactpoly import ZeroScale, bareiss_det, solve_linear


class UnknownLattice(ValueError):
    """Name not in the constructor catalog."""


class DegenerateLattice(ValueError):
    """Operation requires a nonzero determinant."""


class NotTwoElementary(ValueError):
    """Parity is defined only when the discriminant group is (Z/2Z)^l."""


class NotApplicable(ValueError):
    """The invariant-comparison oracle only covers even indefinite
    2-elementary lattices."""


@dataclass(frozen=True)
class GramLattice:
    """An integer lattice presented by the Gram matrix of a basis."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> GramLattice:
        return GramLattice(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))


EMPTY = GramLattice(())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _cartan_a(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _cartan_d(n: int) -> list[list[int]]:
    # chain 1 - 2 - ... - (n-1) with the extra node n attached at (n-2)
    g = _cartan_a(n - 1)
    for row in g:
        row.append(0)
    g.append([0] * n)
    g[n - 1][n - 1] = 2
    g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    return g


_E8_GRAM = (
    # Bourbaki numbering: chain 1-3-4-5-6-7-8 with node 2 attached at 4
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

_RANK12_GLUED_GRAM = (
    # index-2 overlattice of four A3 blocks glued by half the vector
    # (1,0,1 | 1,0,1 | 1,0,1 | 1,0,1); rank 12, determinant 2^6
    (4, -1, 1, 1, -1, 1, 1, -1, 1, 1, -1, 1),
    (-1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, -1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 2, -1, 0, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, -1, 2, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 2, -1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, -1, 2, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 2, -1, 0),
    (-1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1),
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2),
)

_NAME_RE = re.compile(r"^([AD])(\d+)$")


def standard_lattice(name: str) -> GramLattice:
    """Catalog constructor.

    ``H`` hyperbolic plane; ``An``/``Dn`` positive definite root lattices
    (Cartan convention); ``E8`` unimodular rank 8; ``N`` the negative
    definite rank-8 glued lattice (A1(-1)^8 plus the half-sum vector);
    ``K0`` the rank-12 determinant-2^6 glued lattice; ``<2>``/``<-2>``
    rank-1 lattices.  Negative forms come from ``rescale``.
    """
    key = name.strip()
    if key == "H":
        return GramLattice.from_rows([[0, 1], [1, 0]])
    if key == "E8":
        return GramLattice(_E8_GRAM)
    if key == "N":
        eights = direct_sum(*([rescale(standard_lattice("A1"), -1)] * 8))
        return glued_overlattice(eights, [1] * 8)
    if key == "K0":
        return GramLattice(_RANK12_GLUED_GRAM)
    if key == "<2>":
        return GramLattice.from_rows([[2]])
    if key == "<-2>":
        return GramLattice.from_rows([[-2]])
    m = _NAME_RE.match(key)
    if m:
        n = int(m.group(2))
        if m.group(1) == "A" and n >= 1:
            return GramLattice.from_rows(_cartan_a(n))
        if m.group(1) == "D" and n >= 2:
            if n == 2:
                return GramLattice.from_rows([[2, 0], [0, 2]])
            return GramLattice.from_rows(_cartan_d(n))
    raise UnknownLattice(f"no lattice named {name!r}")


def direct_sum(*lattices: GramLattice) -> GramLattice:
    """Orthogonal sum; the empty sum is the rank-0 lattice."""
    total = sum(lat.rank for lat in lattices)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                rows[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    return GramLattice.from_rows(rows)


def rescale(lat: GramLattice, scale: int) -> GramLattice:
    """Multiply the bilinear form by a nonzero integer."""
    if scale == 0:
        raise ZeroScale("cannot scale a bilinear form by zero")
    return GramLattice.from_rows(
        [[scale * x for x in row] for row in lat.gram]
    )


def glued_overlattice(base: GramLattice, half_coords: Sequence[int]) -> GramLattice:
    """Index-2 overlattice of ``base`` generated by v = (sum c_i e_i)/2.

    The coordinates must not all be even, and v must pair integrally with
    the base (so the overlattice is again an integer lattice).  The basis
    of the result is (v, e_i for i != i0) where i0 is the first odd
    coordinate.
    """
    n = base.rank
    w = [int(c) for c in half_coords]
    if len(w) != n:
        raise ValueError("glue coordinates must match the rank")
    odd = [i for i in range(n) if w[i] % 2]
    if not odd:
        raise ValueError("glue vector already lies in the lattice")
    drop = odd[0]
    pair_with_v = [sum(w[r] * base.gram[r][j] for r in range(n)) for j in range(n)]
    vv4 = sum(w[i] * pair_with_v[i] for i in range(n))
    if vv4 % 4 or any(p % 2 for p in pair_with_v):
        raise ValueError("glue vector does not pair integrally with the lattice")
    keep = [i for i in range(n) if i != drop]
    rows = [[vv4 // 4] + [pair_with_v[j] // 2 for j in keep]]
    for i in keep:
        rows.append([pair_with_v[i] // 2] + [base.gram[i][j] for j in keep])
    return GramLattice.from_rows(rows)


def two_param_polarization(c: int) -> GramLattice:
    """Rank-12 polarization bookkeeping lattice of the two-parameter
    twisted family: a rank-2 indefinite piece (hyperbolic plane scaled by
    2 for c = 0, <2> + <-2> for c = 1) plus H plus two copies of D4(-1)."""
    if c == 0:
        head = rescale(standard_lattice("H"), 2)
    elif c == 1:
        head = direct_sum(standard_lattice("<2>"), standard_lattice("<-2>"))
    else:
        raise UnknownLattice(f"two-parameter polarization defined for c in {{0, 1}}, got {c}")
    d4m = rescale(standard_lattice("D4"), -1)
    return direct_sum(head, standard_lattice("H"), d4m, d4m)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def determinant(lat: GramLattice) -> int:
    """Determinant of the Gram matrix (fraction-free elimination)."""
    return bareiss_det(lat.gram)


def signature(lat: GramLattice) -> tuple[int, int]:
    """Counts of positive and negative squares after exact symmetric
    diagonalization; raises DegenerateLattice on a zero determinant."""
    n = lat.rank
    a = [[Fraction(x) for x in row] for row in lat.gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            pivot_col = next(
                (j for j in range(k + 1, n) if a[k][j] != 0), None
            )
            if pivot_col is None:
                raise DegenerateLattice("Gram matrix is singular")
            j = pivot_col
            # symmetric row+column addition keeps congruence class
            sign = 1 if a[k][k] + 2 * a[k][j] + a[j][j] != 0 else -1
            for s in range(n):
                a[k][s] += sign * a[j][s]
            for r in range(n):
                a[r][k] += sign * a[r][j]
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f == 0:
                continue
            for s in range(n):
                a[i][s] -= f * a[k][s]
            for r in range(n):
                a[r][i] -= f * a[r][k]
    return pos, neg


def _smith_diagonal_with_row_inverse(
    gram: tuple[tuple[int, ...], ...]
) -> tuple[list[int], list[list[int]]]:
    """Diagonal of the Smith form D = U * gram * V together with U^{-1}
    (columns of U^{-1} lift the cyclic generators of the cokernel)."""
    n = len(gram)
    a = [list(row) for row in gram]
    uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def add_row(i, j, c):
        # row_i += c * row_j; U^{-1} gets the inverse column operation
        for s in range(n):
            a[i][s] += c * a[j][s]
        for r in range(n):
            uinv[r][j] -= c * uinv[r][i]

    def negate_row(i):
        for s in range(n):
            a[i][s] = -a[i][s]
        for r in range(n):
            uinv[r][i] = -uinv[r][i]

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def add_col(i, j, c):
        for r in range(n):
            a[r][i] += c * a[r][j]

    k = 0
    while k < n:
        piv = None
        for i in range(k, n):
            for j in range(k, n):
                if a[i][j] != 0 and (
                    piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])
                ):
                    piv = (i, j)
        if piv is None:
            break  # zero tail
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, n):
                if a[i][k]:
                    add_row(i, k, -(a[i][k] // a[k][k]))
                    if a[i][k]:
                        swap_rows(i, k)
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j]:
                    add_col(j, k, -(a[k][j] // a[k][k]))
                    if a[k][j]:
                        swap_cols(j, k)
                        dirty = True
        stuck = False
        for i in range(k + 1, n):
            if any(a[i][j] % a[k][k] for j in range(k + 1, n)):
                add_row(k, i, 1)
                stuck = True
                break
        if stuck:
            continue
        if a[k][k] < 0:
            negate_row(k)
        k += 1
    return [a[i][i] for i in range(n)], uinv


def discriminant_group(lat: GramLattice) -> list[int]:
    """Elementary divisors (> 1) of the Gram matrix; their product is
    the absolute determinant."""
    diag, _ = _smith_diagonal_with_row_inverse(lat.gram)
    if any(d == 0 for d in diag):
        raise DegenerateLattice("Gram matrix is singular")
    return [d for d in diag if d > 1]


@dataclass(frozen=True)
class TwoElemInvariants:
    """Rank, signature, length, and parity; parity is None when the
    discriminant group is not 2-elementary."""

    rank: int
    signature: tuple[int, int]
    length: int
    is_two_elementary: bool
    parity: int | None

    def require_parity(self) -> int:
        if self.parity is None:
            raise NotTwoElementary(
                "parity is defined only for 2-elementary discriminant groups"
            )
        return self.parity


def two_elementary_invariants(lat: GramLattice) -> TwoElemInvariants:
    """Invariants (rank, signature, length, parity) of an even lattice.

    Parity is 0 when the discriminant quadratic form is integer-valued on
    every generator of the (2-elementary) discriminant group, else 1;
    generators are read off the Smith transform and lifted to the dual.
    """
    if not lat.is_even:
        raise ValueError("invariants are defined here for even lattices only")
    diag, uinv = _smith_diagonal_with_row_inverse(lat.gram)
    if any(d == 0 for d in diag):
        raise DegenerateLattice("Gram matrix is singular")
    divisors = [d for d in diag if d > 1]
    length = sum(1 for d in divisors if d == 2)
    two_elem = all(d == 2 for d in divisors)
    parity: int | None = None
    if two_elem:
        parity = 0
        for idx, d in enumerate(diag):
            if d != 2:
                continue
            y = [uinv[r][idx] for r in range(lat.rank)]
            z = solve_linear(lat.gram, y)
            q = sum(Fraction(yr) * zr for yr, zr in zip(y, z))
            if q.denominator != 1:
                parity = 1
                break
    return TwoElemInvariants(
        rank=lat.rank,
        signature=signature(lat) if lat.rank else (0, 0),
        length=length,
        is_two_elementary=two_elem,
        parity=parity,
    )


def parity(lat: GramLattice) -> int:
    """Parity of a 2-elementary even lattice; NotTwoElementary otherwise."""
    return two_elementary_invariants(lat).require_parity()


def nikulin_equivalent(first: GramLattice, second: GramLattice) -> bool:
    """Whether two even indefinite 2-elementary lattices are isometric,
    decided purely by (rank, signature, length, parity).

    Raises NotApplicable when either lattice is definite or not
    2-elementary: outside that class the invariants are not a complete
    isomorphism criterion, so no answer is offered.
    """
    inv1 = two_elementary_invariants(first)
    inv2 = two_elementary_invariants(second)
    for inv in (inv1, inv2):
        if not inv.is_two_elementary:
            raise NotApplicable("invariant comparison needs 2-elementary lattices")
        if min(inv.signature) == 0:
            raise NotApplicable("invariant comparison needs indefinite lattices")
    return inv1 == inv2
