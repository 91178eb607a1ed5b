"""Tests for the integer quadratic-form toolkit.

Smith forms and determinants are cross-checked against sympy on random
matrices, signatures against the characteristic polynomial, parity
against a brute-force sum over the discriminant group, and the kernel of
the Gram matrix mod 2 against the Smith form; the named-lattice
identities are pinned as frozen invariant tuples, and every invariant must
survive large unimodular changes of basis.  Each lattice object runs one
signature elimination and one kernel mod 2, and a Smith form only when its
discriminant group is not 2-elementary; errors are raised on every call,
and the cached values equal a recomputation from the raw Gram rows through
the Bareiss determinant and the Smith form.
"""

import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from ellsurf import cli, exactpoly, lattice
from ellsurf.exactpoly import bareiss_det
from ellsurf.lattice import (
    EMPTY,
    DegenerateLattice,
    GramLattice,
    NotApplicable,
    NotTwoElementary,
    UnknownLattice,
    ZeroScale,
    determinant,
    direct_sum,
    discriminant_group,
    glued_overlattice,
    nikulin_equivalent,
    parity,
    rescale,
    signature,
    standard_lattice,
    two_elementary_invariants,
    two_param_polarization,
)
from ellsurf.lattice import _elementary_divisors, _kernel_mod_2

H = standard_lattice("H")
E8 = standard_lattice("E8")
N = standard_lattice("N")
K0 = standard_lattice("K0")
A1M = rescale(standard_lattice("A1"), -1)
D4M = rescale(standard_lattice("D4"), -1)
D6M = rescale(standard_lattice("D6"), -1)


def catalog() -> list[GramLattice]:
    return [
        H, E8, N, K0, A1M, D4M, D6M,
        standard_lattice("A2"), standard_lattice("A3"), standard_lattice("D5"),
        standard_lattice("<2>"), standard_lattice("<-2>"),
        rescale(H, 2), rescale(E8, -2),
    ]


def random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for s in range(n):
                u[i][s] += c * u[j][s]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def congruent(lat: GramLattice, u: list[list[int]]) -> GramLattice:
    n = lat.rank
    g = lat.gram
    ug = [[sum(u[r][i] * g[i][j] for i in range(n)) for j in range(n)] for r in range(n)]
    ugu = [[sum(ug[r][j] * u[s][j] for j in range(n)) for s in range(n)] for r in range(n)]
    return GramLattice.from_rows(ugu)


class TestConstructors:
    def test_catalog_shapes(self):
        assert H.gram == ((0, 1), (1, 0))
        assert standard_lattice("<2>").gram == ((2,),)
        assert standard_lattice("<-2>").gram == ((-2,),)
        assert standard_lattice("A1").gram == ((2,),)
        assert E8.rank == 8 and determinant(E8) == 1
        assert all(lat.is_even for lat in catalog())

    def test_root_lattice_determinants(self):
        for n in range(1, 9):
            assert determinant(standard_lattice(f"A{n}")) == n + 1
        for n in range(2, 9):
            assert determinant(standard_lattice(f"D{n}")) == 4

    def test_definite_signatures(self):
        assert signature(standard_lattice("A5")) == (5, 0)
        assert signature(standard_lattice("D7")) == (7, 0)
        assert signature(E8) == (8, 0)
        assert signature(N) == (0, 8)
        assert signature(K0) == (12, 0)

    def test_glued_rank8(self):
        assert N.rank == 8
        assert determinant(N) == 64
        expected = [[-4] + [-1] * 7]
        for i in range(7):
            row = [-1] + [0] * 7
            row[1 + i] = -2
            expected.append(row)
        assert N == GramLattice.from_rows(expected)

    def test_rank12_glue_cross_check(self):
        blocks = direct_sum(*([standard_lattice("A3")] * 4))
        assert glued_overlattice(blocks, [1, 0, 1] * 4) == K0
        assert determinant(K0) == 64
        # the basis itself is pinned, rows and order: the lattices benchmark
        # conjugates this very matrix
        assert hashlib.sha256(repr(K0.gram).encode()).hexdigest()[:16] == "01dae275e6502049"

    def test_glue_guards(self):
        with pytest.raises(ValueError):
            glued_overlattice(H, [2, 4])  # already in the lattice
        with pytest.raises(ValueError):
            glued_overlattice(standard_lattice("A2"), [1, 0])  # non-integral pairing
        with pytest.raises(ValueError):
            glued_overlattice(H, [1])  # wrong length

    def test_glue_coordinates_must_be_integral(self):
        eights = direct_sum(*([A1M] * 8))
        for bad in (1.5, Fraction(3, 2), "1"):
            with pytest.raises(ValueError, match="glue coordinates must be integers"):
                glued_overlattice(eights, [bad] + [1] * 7)
        assert glued_overlattice(eights, [Fraction(2, 2), 1.0] + [1] * 6) == N

    def test_unknown_names(self):
        for bad in ("E7", "Q5", "A0", "D1", "", "H2", "K1", "<3>"):
            with pytest.raises(UnknownLattice):
                standard_lattice(bad)

    @pytest.mark.parametrize("name", ["A\u0663", "D\u0664", "A\u00b2", "D\uff14"])
    def test_a_root_lattice_index_is_written_in_ascii_digits(self, name):
        # Arabic-Indic three and four, superscript two, fullwidth four
        with pytest.raises(UnknownLattice):
            standard_lattice(name)

    @pytest.mark.parametrize(
        "name",
        ["A" + "9" * 5000, "D" + "9" * 5000, "A65", "D065"],
        ids=["A-5000-nines", "D-5000-nines", "A65", "D065"],
    )
    def test_a_root_index_above_the_rank_cap_is_unknown(self, name):
        # refused before int() reads a long index (Python refuses an int of
        # more than 4 300 digits with a bare ValueError) or a Gram matrix
        # of that size is built
        with pytest.raises(UnknownLattice, match="rank cap 64"):
            standard_lattice(name)

    def test_a_root_index_reads_its_value(self):
        assert standard_lattice("A003") == standard_lattice("A3")
        assert standard_lattice("D" + "0" * 5000 + "4") == standard_lattice("D4")
        assert standard_lattice("A64").rank == 64

    def test_the_two_parameter_polarizations_are_in_the_catalog(self):
        assert standard_lattice("P0") == two_param_polarization(0)
        assert standard_lattice("P1") == two_param_polarization(1)

    def test_rescale(self):
        assert rescale(H, 2).gram == ((0, 2), (2, 0))
        assert determinant(rescale(E8, -2)) == 256
        assert rescale(K0, 1) == K0
        with pytest.raises(ZeroScale):
            rescale(H, 0)

    @pytest.mark.parametrize("scale", [Fraction(1, 2), 2.5, "2", None])
    def test_rescale_refuses_a_scale_that_is_no_integer(self, scale):
        # read as Gram entries are: no odd <1> from A1 at 1/2, no <5> at 2.5
        # and no repeated string at "2"
        with pytest.raises(lattice.MalformedGram, match="scale factors must be integers"):
            rescale(standard_lattice("A1"), scale)

    def test_one_zero_scale_error_for_both_modules(self):
        from ellsurf import exactpoly, hermite_aj, lattice

        assert lattice.ZeroScale is hermite_aj.ZeroScale is exactpoly.ZeroScale

    def test_direct_sum(self):
        hh = direct_sum(H, H)
        assert hh.rank == 4 and signature(hh) == (2, 2)
        he8m2 = direct_sum(H, rescale(E8, -2))
        assert he8m2.rank == 10 and determinant(he8m2) == -256
        assert direct_sum(K0, EMPTY) == K0
        assert direct_sum() == EMPTY

    def test_sum_determinant_and_signature(self):
        rng = random.Random(11)
        pool = catalog()
        for _ in range(20):
            a, b = rng.choice(pool), rng.choice(pool)
            s = direct_sum(a, b)
            assert determinant(s) == determinant(a) * determinant(b)
            sa, sb, ss = signature(a), signature(b), signature(s)
            assert ss == (sa[0] + sb[0], sa[1] + sb[1])

    def test_gram_validation(self):
        with pytest.raises(ValueError):
            GramLattice.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            GramLattice.from_rows([[1, 2, 3], [2, 1, 1]])

    def test_non_integral_entries_are_refused(self):
        with pytest.raises(ValueError, match="integers"):
            GramLattice.from_rows([[Fraction(5, 2), 1], [1, 2.7]])
        with pytest.raises(ValueError, match="integers"):
            GramLattice.from_rows([[2, 1], [1, 2.7]])
        with pytest.raises(ValueError, match="integers"):
            GramLattice(((Fraction(1, 2),),))
        with pytest.raises(ValueError, match="integers"):
            GramLattice(((2, Fraction(1, 3)), (Fraction(1, 3), 2)))

    def test_integral_values_become_ints(self):
        lat = GramLattice(((Fraction(4, 2), 1.0), (1, -2)))
        assert lat.gram == ((2, 1), (1, -2))
        assert all(type(x) is int for row in lat.gram for x in row)
        assert GramLattice.from_rows([[Fraction(2)]]) == standard_lattice("<2>")


class TestDeterminantAndSmith:
    def test_determinant_vs_sympy(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-5, 5)
            lat = GramLattice.from_rows(m)
            assert determinant(lat) == int(sp.Matrix(m).det())

    def test_smith_vs_sympy(self):
        rng = random.Random(6)
        done = 0
        while done < 25:
            n = rng.randint(1, 6)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            lat = GramLattice.from_rows(m)
            if determinant(lat) == 0:
                continue
            snf = smith_normal_form(sp.Matrix(m), domain=sp.ZZ)
            expected = sorted(abs(int(snf[i, i])) for i in range(n))
            expected = [d for d in expected if d > 1]
            assert discriminant_group(lat) == expected
            done += 1

    def test_divisor_product_is_absolute_determinant(self):
        for lat in catalog():
            assert math.prod(discriminant_group(lat)) == abs(determinant(lat))

    def test_frozen_groups(self):
        assert discriminant_group(H) == []
        assert discriminant_group(rescale(E8, -2)) == [2] * 8
        assert discriminant_group(N) == [2] * 6
        assert discriminant_group(K0) == [2, 2, 4, 4]

    def test_degenerate(self):
        bad = GramLattice.from_rows([[2, 2], [2, 2]])
        with pytest.raises(DegenerateLattice):
            discriminant_group(bad)
        with pytest.raises(DegenerateLattice):
            signature(bad)
        with pytest.raises(DegenerateLattice):
            two_elementary_invariants(bad)
        assert determinant(bad) == 0


class TestTwoElementary:
    def test_frozen_invariants(self):
        pm2 = direct_sum(standard_lattice("<2>"), standard_lattice("<-2>"))
        inv = two_elementary_invariants(pm2)
        assert (inv.rank, inv.signature, inv.length, inv.parity) == (2, (1, 1), 2, 1)

        he8 = two_elementary_invariants(direct_sum(H, rescale(E8, -2)))
        assert (he8.rank, he8.signature, he8.length, he8.parity) == (10, (1, 9), 8, 0)
        h2n = two_elementary_invariants(direct_sum(rescale(H, 2), N))
        assert he8 == h2n

        hn = two_elementary_invariants(direct_sum(H, N))
        h2d = two_elementary_invariants(direct_sum(rescale(H, 2), D4M, D4M))
        assert hn == h2d
        assert (hn.length, hn.parity) == (6, 0)

    def test_chain_of_three(self):
        c1 = direct_sum(H, D4M, D4M, *([A1M] * 4))
        c2 = direct_sum(H, D6M, *([A1M] * 6))
        c3 = direct_sum(standard_lattice("<2>"), standard_lattice("<-2>"), D4M, D4M, D4M)
        i1, i2, i3 = map(two_elementary_invariants, (c1, c2, c3))
        assert i1 == i2 == i3
        assert (i1.rank, i1.signature, i1.length, i1.parity) == (14, (1, 13), 8, 1)

    def test_non_two_elementary(self):
        inv = two_elementary_invariants(K0)
        assert not inv.is_two_elementary
        assert inv.parity is None
        assert inv.length == 2  # only the two divisor-2 factors count
        with pytest.raises(NotTwoElementary):
            parity(K0)
        with pytest.raises(NotTwoElementary):
            parity(direct_sum(standard_lattice("A2"), H))

    def test_unimodular_is_trivially_two_elementary(self):
        inv = two_elementary_invariants(H)
        assert inv.is_two_elementary and inv.length == 0 and inv.parity == 0

    def test_odd_lattice_rejected(self):
        odd = GramLattice.from_rows([[1]])
        with pytest.raises(ValueError):
            two_elementary_invariants(odd)

    def test_basis_change_invariance(self):
        rng = random.Random(31)
        pool = [lat for lat in catalog() if lat.rank <= 12]
        for _ in range(30):
            lat = rng.choice(pool)
            u = random_unimodular(rng, lat.rank)
            moved = congruent(lat, u)
            assert two_elementary_invariants(moved) == two_elementary_invariants(lat)
            assert determinant(moved) == determinant(lat)


class TestNikulinEquivalence:
    def test_paper_identities(self):
        assert nikulin_equivalent(
            direct_sum(H, rescale(E8, -2)), direct_sum(rescale(H, 2), N)
        )
        assert nikulin_equivalent(
            direct_sum(H, N), direct_sum(rescale(H, 2), D4M, D4M)
        )
        c1 = direct_sum(H, D4M, D4M, *([A1M] * 4))
        c2 = direct_sum(H, D6M, *([A1M] * 6))
        c3 = direct_sum(standard_lattice("<2>"), standard_lattice("<-2>"), D4M, D4M, D4M)
        assert nikulin_equivalent(c1, c2)
        assert nikulin_equivalent(c1, c3)
        assert nikulin_equivalent(c2, c3)

    def test_distinguishes(self):
        assert nikulin_equivalent(H, rescale(H, 2)) is False
        assert nikulin_equivalent(
            direct_sum(H, rescale(E8, -2)), direct_sum(H, N)
        ) is False  # lengths 8 vs 6

    def test_refusals(self):
        with pytest.raises(NotApplicable):
            nikulin_equivalent(E8, E8)  # definite
        with pytest.raises(NotApplicable):
            nikulin_equivalent(direct_sum(standard_lattice("A2"), H), H)
        with pytest.raises(NotApplicable):
            nikulin_equivalent(direct_sum(H, K0), direct_sum(H, K0))


class TestTwoParamPolarization:
    def test_both_classes(self):
        p0 = two_elementary_invariants(two_param_polarization(0))
        p1 = two_elementary_invariants(two_param_polarization(1))
        assert (p0.rank, p0.signature, p0.length, p0.parity) == (12, (2, 10), 6, 0)
        assert (p1.rank, p1.signature, p1.length, p1.parity) == (12, (2, 10), 6, 1)
        assert nikulin_equivalent(
            two_param_polarization(0), two_param_polarization(1)
        ) is False

    def test_domain(self):
        with pytest.raises(UnknownLattice):
            two_param_polarization(2)
        with pytest.raises(UnknownLattice):
            two_param_polarization(-1)


# ---------------------------------------------------------------------------
# independent oracles: sympy and brute force, never the lattice kernels


def random_symmetric(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-bound, bound)
    return m


def singular_symmetric(rng: random.Random, n: int) -> list[list[int]]:
    """T^T S T for a symmetric (n-1)x(n-1) S and an (n-1)xn T: rank < n."""
    s = sp.Matrix(random_symmetric(rng, n - 1, 6))
    t = sp.Matrix(n - 1, n, lambda i, j: rng.randint(-3, 3))
    return [[int(x) for x in row] for row in (t.T * s * t).tolist()]


def descartes_signature(m: list[list[int]]) -> tuple[int, int] | None:
    """(positive, negative) eigenvalue counts of a symmetric matrix from
    the sign changes of its characteristic polynomial at x and at -x (exact,
    since every root is real); None when 0 is an eigenvalue."""
    coeffs = [int(c) for c in sp.Matrix(m).charpoly().all_coeffs()]
    if coeffs[-1] == 0:
        return None

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    degree = len(coeffs) - 1
    mirrored = [c * (-1) ** (degree - k) for k, c in enumerate(coeffs)]
    return changes(coeffs), changes(mirrored)


def brute_force_parity(lat: GramLattice) -> int:
    """0 when y^T G^-1 y is an integer for every y in {0,1}^n, else 1: for a
    2-elementary lattice those dual vectors cover the discriminant group."""
    g = sp.Matrix(lat.gram)
    det = int(g.det())
    a = [[int(x * det) for x in row] for row in g.inv().tolist()]  # det * G^-1
    n = lat.rank
    for y in itertools.product((0, 1), repeat=n):
        support = [i for i in range(n) if y[i]]
        if sum(a[i][j] for i in support for j in support) % det:
            return 1
    return 0


class TestOracles:
    def test_signature_vs_characteristic_polynomial(self):
        rng = random.Random(41)
        for case in range(90):
            n = rng.randint(1, 8)
            if case % 3 == 2 and n > 1:
                m = singular_symmetric(rng, n)
            else:
                m = random_symmetric(rng, n, 9)
            if case % 3 == 1:
                for i in range(n):
                    m[i][i] = 0
            expected = descartes_signature(m)
            lat = GramLattice.from_rows(m)
            if expected is None:
                with pytest.raises(DegenerateLattice):
                    signature(lat)
            else:
                assert signature(lat) == expected, m

    def test_signature_of_zero_diagonal_forms(self):
        # only off-diagonal entries: every pivot comes from a row/column sum
        hh = direct_sum(H, H, H)
        assert signature(hh) == descartes_signature([list(r) for r in hh.gram]) == (3, 3)
        m = [[0, 3, 5], [3, 0, 7], [5, 7, 0]]
        assert signature(GramLattice.from_rows(m)) == descartes_signature(m)
        with pytest.raises(DegenerateLattice):
            signature(GramLattice.from_rows([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))

    def test_discriminant_group_vs_sympy_smith_form(self):
        rng = random.Random(42)
        done = 0
        for _ in range(200):
            n = rng.randint(1, 8)
            m = random_symmetric(rng, n, 50)
            if sp.Matrix(m).det() == 0:
                continue
            snf = smith_normal_form(sp.Matrix(m), domain=sp.ZZ)
            expected = sorted(abs(int(snf[i, i])) for i in range(n))
            expected = [d for d in expected if d > 1]
            assert discriminant_group(GramLattice.from_rows(m)) == expected
            done += 1
        assert done >= 150

    def test_discriminant_group_of_singular_matrices(self):
        rng = random.Random(43)
        for n in range(2, 9):
            with pytest.raises(DegenerateLattice):
                discriminant_group(GramLattice.from_rows(singular_symmetric(rng, n)))

    def test_parity_vs_brute_force(self):
        rng = random.Random(44)
        pm2 = direct_sum(standard_lattice("<2>"), standard_lattice("<-2>"))
        lattices = [
            pm2, H, rescale(H, 2), A1M, D4M, D6M, N, rescale(E8, -2),
            direct_sum(H, N), direct_sum(H, rescale(E8, -2)),
            direct_sum(rescale(H, 2), N),
            direct_sum(pm2, D4M), direct_sum(H, D4M, A1M, A1M), direct_sum(D6M, A1M, A1M),
            direct_sum(A1M, A1M, A1M), direct_sum(rescale(H, 2), D4M, D4M),
        ]
        lattices += [congruent(lat, random_unimodular(rng, lat.rank)) for lat in lattices] + [
            elementary_conjugate(lat, 60, random.Random(f"parity/{k}"))
            for k, lat in enumerate(lattices)
        ]
        seen = set()
        for lat in lattices:
            assert lat.rank <= 10 and two_elementary_invariants(lat).is_two_elementary
            expected = brute_force_parity(lat)
            assert parity(lat) == two_elementary_invariants(lat).parity == expected
            seen.add(expected)
        assert seen == {0, 1}


# ---------------------------------------------------------------------------
# regression gate: invariants under large unimodular changes of basis


def scenario_lattices() -> list[GramLattice]:
    return [
        lat
        for sc in cli.bundled_scenarios()
        if sc.kind == "lattice-identity"
        for lat in sc.lattices.values()
    ]


def elementary_conjugate(lat: GramLattice, moves: int, rng: random.Random) -> GramLattice:
    """U^T G U for U a product of ``moves`` elementary moves e_i += c e_j."""
    g = [list(row) for row in lat.gram]
    n = len(g)
    if n < 2:
        return lat
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in g:
            row[i] += c * row[j]
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    return GramLattice.from_rows(g)


class TestLargeBasisChanges:
    @pytest.mark.parametrize("moves", [60, 120])
    def test_invariants_survive_unimodular_conjugation(self, moves):
        widest = 0
        for k, source in enumerate(catalog() + scenario_lattices()):
            conj = elementary_conjugate(source, moves, random.Random(f"{k}/{moves}"))
            if source.rank >= 8:
                widest = max(widest, max(abs(x).bit_length() for row in conj.gram for x in row))
            assert determinant(conj) == determinant(source)
            assert signature(conj) == signature(source)
            assert discriminant_group(conj) == discriminant_group(source)
            inv = two_elementary_invariants(source)
            assert two_elementary_invariants(conj) == inv
            if inv.is_two_elementary and min(inv.signature) > 0:
                assert nikulin_equivalent(source, conj) is True
        assert widest >= 12


def gf2_rank(supports: list[list[int]]) -> int:
    """Rank over GF(2) of 0/1 vectors given by their supports."""
    basis: list[int] = []
    for support in supports:
        v = sum(1 << i for i in support)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


class TestParityKernel:
    """The kernel of G mod 2 and the Smith form are two routes to the
    2-torsion of the discriminant group: its dimension is the number of
    even elementary divisors, which for a 2-elementary lattice is the
    length."""

    @pytest.mark.parametrize("moves", [0, 60, 120])
    def test_kernel_dimension_is_the_smith_form_length(self, moves):
        two_elementary = 0
        for k, source in enumerate(catalog() + scenario_lattices()):
            lat = elementary_conjugate(source, moves, random.Random(f"kernel/{k}/{moves}"))
            g = lat.gram
            kernel = _kernel_mod_2(g)
            for y in kernel:
                assert all(sum(row[i] for i in y) % 2 == 0 for row in g)
            assert gf2_rank(kernel) == len(kernel)
            divisors = _elementary_divisors(g, determinant(lat))
            assert len(kernel) == sum(1 for e in divisors if e % 2 == 0)
            if all(e in (1, 2) for e in divisors):
                assert len(kernel) == two_elementary_invariants(lat).length
                two_elementary += 1
        assert two_elementary >= 20

    def test_kernel_counts_every_even_divisor_where_length_does_not(self):
        # K0 has divisors 2, 2, 4, 4: a 2-torsion of rank 4 but length 2
        assert _elementary_divisors(K0.gram, 64)[-4:] == [2, 2, 4, 4]
        assert len(_kernel_mod_2(K0.gram)) == 4
        assert two_elementary_invariants(K0).length == 2


def sympy_divisors(m) -> list[int]:
    snf = smith_normal_form(sp.Matrix(m), domain=sp.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(len(m)))


class TestUnitPivots:
    """The Smith form first drops every pivot that is a unit mod |det|,
    then sweeps the block that has no unit entry left."""

    def test_a_block_without_units_can_still_have_a_divisor_one(self):
        diag = GramLattice.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
        for moves in (0, 3, 6, 60):
            for k in range(4):
                lat = elementary_conjugate(diag, moves, random.Random(f"unit/diag/{moves}/{k}"))
                assert _elementary_divisors(lat.gram, determinant(lat)) == [1, 30, 30]

    def test_a_unimodular_matrix_has_only_divisors_one(self):
        for source in (H, E8, direct_sum(H, E8), direct_sum(H, rescale(E8, -1))):
            for moves in (0, 60):
                lat = elementary_conjugate(source, moves, random.Random(f"unit/one/{moves}"))
                assert abs(determinant(lat)) == 1
                assert _elementary_divisors(lat.gram, determinant(lat)) == [1] * lat.rank

    def test_k0_and_its_conjugates_against_sympy(self):
        lattices = [K0] + [
            elementary_conjugate(K0, moves, random.Random(f"unit/K0/{moves}/{k}"))
            for moves in (60, 120)
            for k in range(2)
        ]
        for lat in lattices:
            divisors = _elementary_divisors(lat.gram, determinant(lat))
            assert divisors == sympy_divisors(lat.gram) == [1] * 8 + [2, 2, 4, 4]

    def test_composite_determinants_against_sympy(self):
        rng = random.Random("unit/composite")
        done = 0
        for _ in range(120):
            m = random_symmetric(rng, rng.randint(2, 7), 9)
            det = determinant(GramLattice.from_rows(m))
            if abs(det) < 4 or sp.isprime(abs(det)):
                continue
            assert _elementary_divisors(m, det) == sympy_divisors(m), m
            done += 1
        assert done >= 80

    def test_the_sweeps_see_only_the_block_without_units(self, monkeypatch):
        rows = []
        clear_column = lattice._clear_column
        monkeypatch.setattr(
            lattice, "_clear_column", lambda a, k, d: rows.append(len(a)) or clear_column(a, k, d)
        )
        for k in range(12):
            lat = elementary_conjugate(K0, 60, random.Random(f"unit/sweeps/{k}"))
            assert _elementary_divisors(lat.gram, 64) == [1] * 8 + [2, 2, 4, 4]
        # the 8 unit pivots leave a 4-row block: 78 sweeps here, where
        # sweeping all 12 rows took 281
        assert rows and max(rows) <= 4 and len(rows) <= 120


# ---------------------------------------------------------------------------
# each invariant is computed once per lattice object


# each elimination by the module that defines it; the lattice module does
# not import bareiss_det, and the counter is put under that name there too
_ELIMINATIONS = {
    "bareiss_det": exactpoly,
    "_elementary_divisors": lattice,
    "_inertia": lattice,
    "_kernel_mod_2": lattice,
}
PUBLIC_INVARIANTS = (determinant, signature, discriminant_group, two_elementary_invariants, parity)


@pytest.fixture
def eliminations(monkeypatch):
    """Per elimination, how often it ran on each Gram matrix, keyed by the
    matrix's identity: every lattice object holds its own Gram tuple."""
    runs = {name: collections.Counter() for name in _ELIMINATIONS}
    for name, home in _ELIMINATIONS.items():

        def counted(gram, *rest, _kernel=getattr(home, name), _runs=runs[name]):
            _runs[id(gram)] += 1
            return _kernel(gram, *rest)

        monkeypatch.setattr(home, name, counted)
        monkeypatch.setattr(lattice, name, counted, raising=False)
    return runs


def _ask_everything_twice(lat: GramLattice) -> None:
    for _ in range(2):
        for invariant in PUBLIC_INVARIANTS:
            _outcome(invariant, lat)


class TestEachInvariantOnce:
    def test_every_elimination_runs_at_most_once_per_lattice(self, eliminations):
        source = direct_sum(H, N)
        conj = elementary_conjugate(source, 60, random.Random("once"))
        for _ in range(2):
            _ask_everything_twice(source)
            assert nikulin_equivalent(source, conj) is True
        both = {id(source.gram): 1, id(conj.gram): 1}
        assert eliminations == {
            "bareiss_det": {},
            "_elementary_divisors": {},
            "_inertia": both,
            "_kernel_mod_2": both,
        }

    def test_a_group_with_a_four_runs_the_smith_form_once(self, eliminations):
        lat = standard_lattice("K0")
        conj = elementary_conjugate(lat, 60, random.Random("four"))
        for each in (lat, conj):
            _ask_everything_twice(each)
            assert discriminant_group(each) == [2, 2, 4, 4]
        both = {id(lat.gram): 1, id(conj.gram): 1}
        assert eliminations == {
            "bareiss_det": {},
            "_elementary_divisors": both,
            "_inertia": both,
            "_kernel_mod_2": both,
        }

    def test_an_equal_but_distinct_lattice_computes_its_own_values(self, eliminations):
        first = direct_sum(H, rescale(E8, -2))
        second = GramLattice(first.gram)
        assert second == first and second.gram is not first.gram
        assert two_elementary_invariants(second) == two_elementary_invariants(first)
        assert two_elementary_invariants(second) == two_elementary_invariants(first)
        both = {id(first.gram): 1, id(second.gram): 1}
        assert eliminations == {
            "bareiss_det": {},
            "_elementary_divisors": {},
            "_inertia": both,
            "_kernel_mod_2": both,
        }


def uncached_invariants(lat: GramLattice) -> dict:
    """Each public invariant recomputed from the raw Gram rows: the
    determinant by Bareiss elimination, which the lattice never runs, the
    group by the Smith form, which it runs only off the 2-elementary case,
    the signature by the symmetric elimination and parity off the kernel
    mod 2."""
    g = lat.gram
    det = bareiss_det(g)
    group = [e for e in _elementary_divisors(g, det) if e > 1]
    _, sig = lattice._inertia(g)
    two_elem = all(e == 2 for e in group)
    odd = any(sum(g[i][j] for i in y for j in y) % 4 for y in _kernel_mod_2(g))
    par = int(odd) if two_elem else None
    return {
        determinant: det,
        signature: sig,
        discriminant_group: group,
        two_elementary_invariants: (lat.rank, sig, group.count(2), two_elem, par),
        parity: par if two_elem else NotTwoElementary,
    }


def _outcome(invariant, lat: GramLattice):
    try:
        return invariant(lat)
    except ValueError as exc:
        return type(exc)


class TestCacheContract:
    def test_a_singular_lattice_raises_on_every_call(self):
        bad = GramLattice.from_rows([[2, 2], [2, 2]])
        for _ in range(2):
            with pytest.raises(DegenerateLattice):
                signature(bad)
            with pytest.raises(DegenerateLattice):
                discriminant_group(bad)
            with pytest.raises(DegenerateLattice):
                two_elementary_invariants(bad)
            assert determinant(bad) == 0

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations(PUBLIC_INVARIANTS[:4])),
        ids=lambda order: "-".join(invariant.__name__ for invariant in order),
    )
    def test_a_singular_lattice_raises_whichever_invariant_comes_first(self, order):
        rng = random.Random("singular")
        rows = [
            [[0]],
            [[2, 2], [2, 2]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[1, 1], [1, 1]],
        ] + [singular_symmetric(rng, n) for n in (3, 5, 8)]
        for gram in rows:
            lat = GramLattice.from_rows(gram)
            assert lattice._inertia(lat.gram) == (0, None)
            for _ in range(2):
                for invariant in order:
                    if invariant is determinant:
                        assert determinant(lat) == 0
                    elif invariant is two_elementary_invariants and not lat.is_even:
                        with pytest.raises(lattice.OddLattice):
                            two_elementary_invariants(lat)
                    else:
                        with pytest.raises(DegenerateLattice, match="^Gram matrix is singular$"):
                            invariant(lat)

    def test_an_odd_lattice_raises_on_every_call(self):
        odd = GramLattice.from_rows([[3]])
        for _ in range(2):
            assert discriminant_group(odd) == [3] and signature(odd) == (1, 0)
            with pytest.raises(ValueError, match="even lattices only"):
                two_elementary_invariants(odd)

    def test_a_returned_list_is_a_fresh_copy(self):
        lat = standard_lattice("K0")
        group = discriminant_group(lat)
        group[0] = 5
        group.append(7)
        assert discriminant_group(lat) == [2, 2, 4, 4]
        assert discriminant_group(lat) is not discriminant_group(lat)

    @given(
        source=st.sampled_from(catalog() + [direct_sum(H, N), direct_sum(H, D6M, A1M, A1M)]),
        moves=st.sampled_from((0, 6, 60)),
        seed=st.integers(0, 2**16),
        order=st.permutations(PUBLIC_INVARIANTS),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_values_equal_an_uncached_recomputation(self, source, moves, seed, order):
        lat = elementary_conjugate(source, moves, random.Random(seed))
        expected = uncached_invariants(lat)
        for _ in range(2):
            for invariant in order:
                assert _outcome(invariant, lat) == expected[invariant], invariant.__name__


def smith_route(lat: GramLattice) -> list[int]:
    """The discriminant group through the Bareiss determinant and the
    Smith form, whatever the lattice."""
    g = lat.gram
    return [e for e in _elementary_divisors(g, bareiss_det(g)) if e > 1]


class TestTwoElementaryShortcut:
    """A 2-elementary group is read off the kernel mod 2 when |det| = 2^l,
    l its dimension; it must agree with the Smith form everywhere,
    including where |det| is a power of two but the kernel is too small."""

    def test_the_group_equals_the_smith_route(self):
        sources = catalog() + scenario_lattices()
        lattices = list(sources) + [GramLattice.from_rows([[2, 0], [0, 4]])]
        for moves in (6, 60, 120):
            lattices += [
                elementary_conjugate(source, moves, random.Random(f"shortcut/{k}/{moves}"))
                for k, source in enumerate(sources)
            ]
        sides = collections.Counter()
        for lat in lattices:
            shortcut = abs(determinant(lat)) == 1 << len(_kernel_mod_2(lat.gram))
            sides[shortcut, abs(determinant(lat)).bit_count() == 1] += 1
            assert discriminant_group(lat) == smith_route(lat), lat.gram
        # both sides of the choice, and power-of-two determinants on each
        assert sides[True, True] >= 40 and sides[False, True] >= 8 and sides[False, False] >= 4

    @pytest.mark.parametrize(
        "lat, group",
        [
            (E8, []),
            (H, []),
            (standard_lattice("A2"), [3]),
            (GramLattice.from_rows([[2, 0], [0, 4]]), [2, 4]),
            (standard_lattice("D5"), [4]),
            (K0, [2, 2, 4, 4]),
            (N, [2] * 6),
        ],
        ids=["E8", "H", "A2", "diag-2-4", "D5", "K0", "N"],
    )
    def test_pinned_groups_on_both_routes(self, lat, group):
        assert discriminant_group(lat) == smith_route(lat) == group

    def test_a_singular_matrix_has_no_group_on_either_route(self):
        rng = random.Random("shortcut/singular")
        for n in range(2, 8):
            lat = GramLattice.from_rows(singular_symmetric(rng, n))
            for route in (discriminant_group, smith_route):
                with pytest.raises(DegenerateLattice):
                    route(lat)


class TestNamedErrors:
    @pytest.mark.parametrize(
        "rows, words",
        [
            ([[1, 2], [3, 4]], "symmetric"),
            ([[1, 2, 3], [2, 1, 1]], "square"),
            ([[2, 1], [1, 2.7]], "integers"),
        ],
        ids=["non-symmetric", "non-square", "non-integral"],
    )
    def test_a_malformed_gram_matrix_raises_a_named_error(self, rows, words):
        with pytest.raises(lattice.MalformedGram, match=words):
            GramLattice.from_rows(rows)

    def test_an_odd_lattice_raises_a_named_error(self):
        with pytest.raises(lattice.OddLattice, match="even lattices only"):
            two_elementary_invariants(GramLattice.from_rows([[3]]))

    @pytest.mark.parametrize(
        "base, coords, words",
        [
            (H, [2, 4], "already lies"),
            (standard_lattice("A2"), [1, 0], "pair integrally"),
            (H, [1], "match the rank"),
            (H, [0.5, 1], "integers"),
        ],
        ids=["in-the-lattice", "non-integral-pairing", "wrong-length", "non-integral"],
    )
    def test_a_bad_glue_vector_raises_a_named_error(self, base, coords, words):
        with pytest.raises(lattice.BadGlue, match=words):
            glued_overlattice(base, coords)
