"""Integer quadratic forms: Gram matrices, discriminant groups, and the
classification invariants of even 2-elementary lattices.

The isomorphism oracle implemented here is deliberately narrow: two even
indefinite 2-elementary lattices are isometric exactly when their rank,
signature, length, and parity agree, so ``nikulin_equivalent`` compares
those invariants and refuses anything outside that hypothesis class.

All arithmetic is on integers, and every invariant takes time polynomial
in the size of the Gram matrix: the Smith form keeps its entries below
|det|, and the fraction-free elimination keeps its own to minors of G.

* ``determinant`` and ``signature``: one symmetric fraction-free
  elimination, which reads the signature off the signs of consecutive
  leading principal minors (Jacobi's rule) and whose last pivot is the
  determinant;
* parity: a GF(2) elimination gives a basis of the kernel of G mod 2, the
  2-torsion of L*/L, and parity is 0 when 4 divides y^T G y for each y;
* ``discriminant_group``: (Z/2)^l when |det| = 2^l for l the dimension of
  that kernel (the 2-elementary lattices), else the Smith form taken
  modulo |det| (Cohen, *A Course in Computational Algebraic Number
  Theory*, Alg. 2.4.14), so no entry ever exceeds |det|; the pivots that
  are units mod |det| go first, in one pass each, and the sweeps see
  only the block that has no unit entry.

Each invariant is computed once per lattice object: a ``GramLattice`` is
immutable, so it keeps its elimination, kernel mod 2, elementary divisors
and 2-elementary invariants (``functools.cached_property``) from their
first use.  The eliminations themselves run on the raw Gram rows and know
nothing of the class.  A failed invariant is not kept, so a singular or
odd lattice raises its error on every call, and a list handed out is a
fresh copy.

Gram matrices hold ints; a Gram matrix that is not square, symmetric and
integral is refused with ``MalformedGram``.

The catalog writes out only the E8 table and the root-lattice Cartan
rules; each glued lattice (``N``, ``K0``) is ``glued_overlattice`` of its
blocks and glue vector.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .exactpoly import ZeroScale


class UnknownLattice(ValueError):
    """Name not in the constructor catalog."""


class DegenerateLattice(ValueError):
    """Operation requires a nonzero determinant."""


class NotTwoElementary(ValueError):
    """Parity is defined only when the discriminant group is (Z/2Z)^l."""


class NotApplicable(ValueError):
    """The invariant-comparison oracle only covers even indefinite
    2-elementary lattices."""


class MalformedGram(ValueError):
    """A Gram matrix must be square, symmetric and integral."""


class OddLattice(ValueError):
    """The 2-elementary invariants are defined here for even lattices only."""


class BadGlue(ValueError):
    """Glue coordinates must be integral, one per basis vector, not all
    even, and pair integrally with the lattice."""


@dataclass(frozen=True)
class GramLattice:
    """An integer lattice presented by the Gram matrix of a basis.

    The invariants below are computed on first use and kept on the
    object; the public functions of the module read them.
    """

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise MalformedGram("Gram matrix must be square")
        what = "Gram matrix entries"
        gram = tuple(
            tuple(x if type(x) is int else _integral(x, MalformedGram, what) for x in row)
            for row in self.gram
        )
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise MalformedGram("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> GramLattice:
        return GramLattice(tuple(tuple(row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @cached_property
    def _elimination(self) -> tuple[int, tuple[int, int] | None]:
        return _inertia(self.gram)

    @property
    def _det(self) -> int:
        return self._elimination[0]

    @property
    def _signature(self) -> tuple[int, int]:
        signature = self._elimination[1]
        if signature is None:
            raise DegenerateLattice("Gram matrix is singular")
        return signature

    @cached_property
    def _kernel(self) -> list[list[int]]:
        return _kernel_mod_2(self.gram)

    @cached_property
    def _discriminant(self) -> tuple[int, ...]:
        length = len(self._kernel)
        if abs(self._det) == 1 << length:
            return (2,) * length
        return tuple(e for e in _elementary_divisors(self.gram, self._det) if e > 1)

    @cached_property
    def _two_elementary(self) -> TwoElemInvariants:
        g = self.gram
        divisors = self._discriminant
        two_elem = all(e == 2 for e in divisors)
        odd = two_elem and any(sum(g[i][j] for i in y for j in y) % 4 for y in self._kernel)
        return TwoElemInvariants(
            rank=self.rank,
            signature=self._signature,
            length=divisors.count(2),
            is_two_elementary=two_elem,
            parity=int(odd) if two_elem else None,
        )


def _integral(x, error: type[ValueError], what: str) -> int:
    """``x`` as an int; ``error`` unless it is an integral number."""
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != x:
        raise error(f"{what} must be integers, got {x!r}")
    return value


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

_NAME_RE = re.compile(r"^([AD])0*([0-9]+)$")

# the largest rank of a catalog root lattice or a scenario's lattice
# expression, so that a short name such as A99999999 cannot ask for a huge
# Gram matrix; the paper's largest, the K3 lattice, has rank 22
MAX_LATTICE_RANK = 64


def standard_lattice(name: str) -> GramLattice:
    """Catalog constructor.

    ``H`` hyperbolic plane; ``An``/``Dn`` positive definite root lattices
    (Cartan convention, n in ASCII digits, at most ``MAX_LATTICE_RANK``);
    ``E8`` unimodular rank 8; ``N`` the negative definite rank-8 glued
    lattice (A1(-1)^8 plus the half-sum vector); ``K0`` the rank-12
    determinant-2^6 glued lattice (A3^4 plus half of (1,0,1) in each
    block); ``<2>``/``<-2>`` rank-1 lattices;
    ``P0``/``P1`` the ``two_param_polarization`` lattices for c = 0, 1.
    Negative forms come from ``rescale``.
    """
    key = name.strip()
    if key in ("P0", "P1"):
        return two_param_polarization(int(key[1]))
    if key == "H":
        return GramLattice.from_rows([[0, 1], [1, 0]])
    if key == "E8":
        return GramLattice(_E8_GRAM)
    if key == "N":
        eights = direct_sum(*([rescale(standard_lattice("A1"), -1)] * 8))
        return glued_overlattice(eights, [1] * 8)
    if key == "K0":
        return glued_overlattice(direct_sum(*([standard_lattice("A3")] * 4)), (1, 0, 1) * 4)
    if key == "<2>":
        return GramLattice.from_rows([[2]])
    if key == "<-2>":
        return GramLattice.from_rows([[-2]])
    m = _NAME_RE.match(key)
    if m:
        # the length test first, so int() never reads a long digit string
        if len(m.group(2)) > len(str(MAX_LATTICE_RANK)) or int(m.group(2)) > MAX_LATTICE_RANK:
            raise UnknownLattice(f"{m.group(1)} root index above the rank cap {MAX_LATTICE_RANK}")
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
    """Multiply the bilinear form by a nonzero integer, read as Gram entries are."""
    factor = _integral(scale, MalformedGram, "scale factors")
    if factor == 0:
        raise ZeroScale("cannot scale a bilinear form by zero")
    return GramLattice.from_rows([[factor * x for x in row] for row in lat.gram])


def glued_overlattice(base: GramLattice, half_coords: Sequence[int]) -> GramLattice:
    """Index-2 overlattice of ``base`` generated by v = (sum c_i e_i)/2.

    The coordinates must be integral values, not all even, and v must
    pair integrally with the base (so the overlattice is again an integer
    lattice).  The basis of the result is (v, e_i for i != i0) where i0 is
    the first odd coordinate.
    """
    n = base.rank
    w = [_integral(c, BadGlue, "glue coordinates") for c in half_coords]
    if len(w) != n:
        raise BadGlue("glue coordinates must match the rank")
    odd = [i for i in range(n) if w[i] % 2]
    if not odd:
        raise BadGlue("glue vector already lies in the lattice")
    drop = odd[0]
    pair_with_v = [sum(w[r] * base.gram[r][j] for r in range(n)) for j in range(n)]
    vv4 = sum(w[i] * pair_with_v[i] for i in range(n))
    if vv4 % 4 or any(p % 2 for p in pair_with_v):
        raise BadGlue("glue vector does not pair integrally with the lattice")
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
    """Determinant of the Gram matrix: the last pivot of the elimination
    that ``signature`` reads, 0 for a singular matrix."""
    return lat._det


def signature(lat: GramLattice) -> tuple[int, int]:
    """Counts of positive and negative squares; raises DegenerateLattice
    on a zero determinant."""
    return lat._signature


def _inertia(gram: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, int] | None]:
    """The determinant and the signature of a Gram matrix, by symmetric
    fraction-free elimination; ``(0, None)`` when it is singular.

    Congruence moves bring a nonzero entry to the diagonal, and the
    Bareiss update keeps the trailing block integral.  Each pivot is a
    leading principal minor of a congruent Gram matrix U^T G U, so by
    Jacobi's rule a pivot with the sign of the previous one (1 before the
    first) is a positive square, and a sign change a negative one.  The
    last pivot is det(U^T G U) = det G, every move being unimodular.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0 and not _diagonal_pivot(a, k):
            return 0, None
        p = a[k][k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[k]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            for j in range(i, n):
                row[j] = a[j][i] = (p * row[j] - f * top[j]) // prev
        prev = p
    return prev, (pos, neg)


def _diagonal_pivot(a: list[list[int]], k: int) -> bool:
    """Make a[k][k] nonzero by a congruence move on indices >= k: swap in a
    nonzero diagonal entry, or else, all of them being zero, add e_j to e_k
    across a nonzero a[k][j], which puts 2 a[k][j] on the diagonal.  With
    neither, row k of the trailing block is zero and the form singular:
    False, and ``a`` is left as it was."""
    n = len(a)
    r = next((r for r in range(k + 1, n) if a[r][r]), None)
    if r is not None:
        a[k], a[r] = a[r], a[k]
        for row in a:
            row[k], row[r] = row[r], row[k]
        return True
    j = next((j for j in range(k + 1, n) if a[k][j]), None)
    if j is None:
        return False
    a[k] = [x + y for x, y in zip(a[k], a[j])]
    for row in a:
        row[k] += row[j]
    return True


def _elementary_divisors(gram: tuple[tuple[int, ...], ...], det: int) -> list[int]:
    """Diagonal of the Smith form of a nonsingular integer matrix, in
    increasing order (each divides the next); ``det`` is its determinant.
    The lattices read their discriminant group here only when it is not
    2-elementary (see ``discriminant_group``).

    Works modulo D = |det| (Cohen, Alg. 2.4.14): the columns span a
    lattice that contains D Z^n, so reducing entries mod D and replacing a
    cleared pivot p by gcd(p, D) keep that lattice, and every entry stays
    below D.  It runs in two phases.

    First every pivot that is a unit mod D goes, one at a time: an entry u
    with gcd(u, D) = 1 is brought to the pivot place, and the row moves
    row_i -= (row_i[k] u^-1 mod D) row_k clear its column.  The column
    moves that would clear its row then change that row only, the column
    being zero below the pivot, so the pivot's row and column are dropped
    with a divisor 1 and no sweep or transpose.

    The sweeps then run on the block where no entry is a unit (4 rows of
    the 12 for a conjugate of ``K0``).  Row moves clear the pivot column,
    then the block is transposed so that the pivot row is cleared next,
    and so on until both are clear.  Only an extended-gcd move can refill
    the cleared line, and it shrinks the pivot to a proper divisor, as
    does adding a trailing row with an entry the pivot does not divide,
    which is needed before the next pivot; a pivot can shrink at most
    log2(D) times, so each pivot is final after O(log D) sweeps.  A block
    without a unit entry can still have 1 as a divisor: diag(6, 10, 15)
    has [1, 30, 30].
    """
    d = abs(det)
    if d == 0:
        raise DegenerateLattice("Gram matrix is singular")
    a = _drop_unit_pivots([[x % d for x in row] for row in gram], d)
    divisors = [1] * (len(gram) - len(a))
    n = len(a)
    k = 0
    while k < n:
        while any(a[k][j] or a[j][k] for j in range(k + 1, n)):
            _clear_column(a, k, d)
            a = [list(col) for col in zip(*a)]
        p = a[k][k] = gcd(a[k][k], d)
        stray = next(
            (i for i in range(k + 1, n) for j in range(k + 1, n) if a[i][j] % p), None
        )
        if stray is None:
            divisors.append(p)
            k += 1
        else:
            a[k] = [(x + y) % d for x, y in zip(a[k], a[stray])]
    return divisors


def _drop_unit_pivots(a: list[list[int]], d: int) -> list[list[int]]:
    """The block left of ``a`` (entries mod d) once each pivot that is a
    unit mod d has cleared its column and been dropped with its row and
    column; each dropped pivot is an elementary divisor 1."""
    for _ in range(len(a)):
        unit = next(
            ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if gcd(x, d) == 1),
            None,
        )
        if unit is None:
            break
        i, j = unit
        top = a.pop(i)
        inverse = pow(top[j], -1, d)
        for r, row in enumerate(a):
            f = row[j] * inverse % d
            a[r] = [(x - f * y) % d for c, (x, y) in enumerate(zip(row, top)) if c != j]
    return a


def _clear_column(a: list[list[int]], k: int, d: int) -> None:
    """Zero a[i][k] for i > k by row moves mod d: a plain subtraction when
    the pivot p = a[k][k] divides the entry x, else the unimodular move
    [[u, v], [-x/g, p/g]] that puts g = gcd(p, x) = u p + v x on the
    pivot.  (A gcd move on a divisible entry would swap rows without
    shrinking the pivot, and the sweeps could cycle.)"""
    for i in range(k + 1, len(a)):
        x = a[i][k]
        if x == 0:
            continue
        p = a[k][k]
        if p and x % p == 0:
            q = x // p
            a[i] = [(y - q * z) % d for y, z in zip(a[i], a[k])]
        else:
            g, u, v = _xgcd(p, x)
            pg, xg = p // g, x // g
            a[k], a[i] = (
                [(u * y + v * z) % d for y, z in zip(a[k], a[i])],
                [(pg * z - xg * y) % d for y, z in zip(a[k], a[i])],
            )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u a + v b = g = gcd(a, b), for a, b >= 0 not both 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, v0, u1, v1 = u1, v1, u0 - q * u1, v0 - q * v1
    return a, u0, v0


def discriminant_group(lat: GramLattice) -> list[int]:
    """Elementary divisors (> 1) of the Gram matrix; their product is
    the absolute determinant.

    The kernel of G mod 2 has one dimension for each even elementary
    divisor, l of them.  All the divisors multiply to |det|; when that is
    2^l, the l even ones, each at least 2, leave no room: each is 2 and
    every odd one is 1.  So a 2-elementary group, (Z/2)^l, is read off the
    kernel that parity needs anyway, and only the other lattices (an odd
    determinant, or a 4 among the divisors) take the Smith form.
    """
    return list(lat._discriminant)


def _kernel_mod_2(gram: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """A basis of the kernel of G mod 2, each vector as its support.

    Gauss-Jordan elimination over GF(2) on [G | I], one int per row (bit j
    is column j).  The I parts stay independent, so the rows are distinct;
    those never taken as a pivot end with a zero G part over a kernel vector.
    """
    n = len(gram)
    rows = [
        sum((x & 1) << j for j, x in enumerate(row)) | 1 << (n + i)
        for i, row in enumerate(gram)
    ]
    for j in range(n):
        pivot = next((r for r in rows if r >> j & 1), None)
        if pivot is not None:
            rows = [r ^ pivot if r >> j & 1 else r for r in rows if r != pivot]
    return [[i for i in range(n) if r >> (n + i) & 1] for r in rows]


class TwoElemInvariants(NamedTuple):
    """Rank, signature, length, and parity; parity is None when the
    discriminant group is not 2-elementary."""

    rank: int
    signature: tuple[int, int]
    length: int
    is_two_elementary: bool
    parity: int | None


def two_elementary_invariants(lat: GramLattice) -> TwoElemInvariants:
    """Invariants (rank, signature, length, parity) of an even lattice.

    The length counts the elementary divisors equal to 2.  Parity is 0
    when the discriminant quadratic form is integer-valued on the
    (2-elementary) discriminant group, else 1.  x is in L* exactly when
    G x is integral, so the 2-torsion of L*/L is {y/2 : G y = 0 mod 2}
    modulo L, the kernel of G mod 2, which for a 2-elementary group has
    ``length`` dimensions.  There q(y/2) = y^T G y / 4 for any lift y,
    and q is additive mod Z since 2 b(x, x') = b(x, 2 x') is integral, so
    parity is 0 exactly when 4 divides y^T G y across a kernel basis.
    """
    if not lat.is_even:
        raise OddLattice("invariants are defined here for even lattices only")
    return lat._two_elementary


def parity(lat: GramLattice) -> int:
    """Parity of a 2-elementary even lattice; NotTwoElementary otherwise."""
    value = two_elementary_invariants(lat).parity
    if value is None:
        raise NotTwoElementary(
            "parity is defined only for 2-elementary discriminant groups"
        )
    return value


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
