"""Tests for the integer quadratic-form toolkit.

Smith forms and determinants are cross-checked against sympy on random
matrices; the named-lattice identities are pinned as frozen invariant
tuples.
"""

import math
import random

import pytest
import sympy as sp
from sympy.matrices.normalforms import smith_normal_form

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

    def test_glue_guards(self):
        with pytest.raises(ValueError):
            glued_overlattice(H, [2, 4])  # already in the lattice
        with pytest.raises(ValueError):
            glued_overlattice(standard_lattice("A2"), [1, 0])  # non-integral pairing
        with pytest.raises(ValueError):
            glued_overlattice(H, [1])  # wrong length

    def test_unknown_names(self):
        for bad in ("E7", "Q5", "A0", "D1", "", "H2", "K1", "<3>"):
            with pytest.raises(UnknownLattice):
                standard_lattice(bad)

    def test_rescale(self):
        assert rescale(H, 2).gram == ((0, 2), (2, 0))
        assert determinant(rescale(E8, -2)) == 256
        assert rescale(K0, 1) == K0
        with pytest.raises(ZeroScale):
            rescale(H, 0)

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
