import random

import pytest

from cocycle.errors import NotSquarefree, SizeLimit
from cocycle.quad import (
    conjugate,
    elements_of_norm,
    ideal_from_generators,
    invariant_principal_quotient,
    is_principal,
    make_ring,
    multiply,
    principal_ideal,
    ramified_primes,
    unit_group,
    unit_h1,
    verify_units_iso,
    whole_ring,
)

D_CORPUS = [1, 2, 3, 5, 6, 7, 10, 13, 15]


class TestRings:
    def test_gaussian(self):
        ring = make_ring(1)
        assert not ring.half_basis
        assert ring.discriminant == -4
        assert ring.mul((0, 1), (0, 1)) == (-1, 0)  # i^2 = -1

    def test_eisenstein(self):
        ring = make_ring(3)
        assert ring.half_basis
        assert ring.discriminant == -3
        # omega^2 = omega - 1
        assert ring.mul((0, 1), (0, 1)) == (-1, 1)

    def test_d5(self):
        ring = make_ring(5)
        assert not ring.half_basis
        assert ring.discriminant == -20

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            make_ring(12)

    def test_bound(self):
        with pytest.raises(SizeLimit):
            make_ring(300)

    @pytest.mark.parametrize("d", [0, -5])
    def test_nonpositive_d_is_an_input_error(self, d):
        with pytest.raises(ValueError, match="positive"):
            make_ring(d)

    def test_conj_is_involution_and_norm(self):
        rng = random.Random(5)
        for d in D_CORPUS:
            ring = make_ring(d)
            for _ in range(100):
                u = (rng.randint(-9, 9), rng.randint(-9, 9))
                assert ring.conj(ring.conj(u)) == u
                assert ring.norm(u) == ring.mul(u, ring.conj(u))[0]
                assert ring.mul(u, ring.conj(u))[1] == 0


class TestIdeals:
    def test_multiply_by_unit_ideal(self):
        ring = make_ring(5)
        ideal = ideal_from_generators(ring, [(2, 0), (1, 1)])
        assert multiply(ideal, whole_ring(ring)) == ideal

    def test_gaussian_two_ramifies(self):
        ring = make_ring(1)
        p = principal_ideal(ring, (1, 1))  # (1+i)
        assert multiply(p, p) == principal_ideal(ring, (2, 0))

    def test_conjugate_of_one_plus_i(self):
        ring = make_ring(1)
        p = principal_ideal(ring, (1, 1))
        assert conjugate(p) == p  # (1-i) = (1+i) as ideals

    def test_norm_multiplicative_sampled(self):
        rng = random.Random(11)
        for d in D_CORPUS:
            ring = make_ring(d)
            ideals = []
            while len(ideals) < 60:
                g = (rng.randint(-9, 9), rng.randint(-9, 9))
                h = (rng.randint(-9, 9), rng.randint(-9, 9))
                if g == (0, 0):
                    continue
                ideals.append(ideal_from_generators(ring, [g, h] if h != (0, 0) else [g]))
            for _ in range(10_000):
                i, j = rng.choice(ideals), rng.choice(ideals)
                assert multiply(i, j).norm == i.norm * j.norm

    def test_conjugation_is_involution_on_ideals(self):
        rng = random.Random(31)
        for d in D_CORPUS:
            ring = make_ring(d)
            for _ in range(30):
                g = (rng.randint(-7, 7), rng.randint(-7, 7))
                h = (rng.randint(-7, 7), rng.randint(-7, 7))
                if g == (0, 0):
                    continue
                ideal = ideal_from_generators(ring, [g, h] if h != (0, 0) else [g])
                assert conjugate(conjugate(ideal)) == ideal

    def test_normal_form_unique_roundtrip(self):
        rng = random.Random(23)
        ring = make_ring(7)
        for _ in range(50):
            g = (rng.randint(-8, 8), rng.randint(-8, 8))
            if g == (0, 0):
                continue
            ideal = principal_ideal(ring, g)
            again = multiply(ideal, whole_ring(ring))
            assert (ideal.a, ideal.b, ideal.c) == (again.a, again.b, again.c)


class TestPrincipality:
    def test_rational_ideal(self):
        ring = make_ring(5)
        ideal = principal_ideal(ring, (3, 0))
        gen = is_principal(ideal)
        assert gen in {(3, 0), (-3, 0)}
        assert principal_ideal(ring, gen) == ideal

    def test_nonprincipal_in_z_sqrt_minus5(self):
        ring = make_ring(5)
        ideal = ideal_from_generators(ring, [(2, 0), (1, 1)])
        assert ideal.norm == 2
        assert is_principal(ideal) is None

    def test_sqrt_minus5_is_principal(self):
        ring = make_ring(5)
        ideal = principal_ideal(ring, (0, 1))
        gen = is_principal(ideal)
        assert gen is not None
        assert principal_ideal(ring, gen) == ideal

    def test_returned_generator_generates(self):
        rng = random.Random(3)
        for d in [1, 2, 3, 7]:
            ring = make_ring(d)
            for _ in range(20):
                g = (rng.randint(-5, 5), rng.randint(-5, 5))
                if g == (0, 0):
                    continue
                ideal = principal_ideal(ring, g)
                gen = is_principal(ideal)
                assert gen is not None
                assert principal_ideal(ring, gen) == ideal

    def test_elements_of_norm_complete(self):
        # brute-force box check agrees with ellipse enumeration, for both basis kinds
        for d in (1, 2, 3, 5, 6, 7):
            ring = make_ring(d)
            for n in range(1, 30):
                listed = elements_of_norm(ring, n)
                brute = [
                    (x, y)
                    for x in range(-20, 21)
                    for y in range(-20, 21)
                    if ring.norm((x, y)) == n
                ]
                assert listed == brute


class TestRamified:
    def test_gaussian(self):
        ring = make_ring(1)
        ram = ramified_primes(ring)
        assert [p for p, _ in ram] == [2]
        assert ram[0][1].norm == 2

    def test_d5(self):
        ring = make_ring(5)
        ram = ramified_primes(ring)
        assert [p for p, _ in ram] == [2, 5]

    def test_eisenstein(self):
        ring = make_ring(3)
        ram = ramified_primes(ring)
        assert [p for p, _ in ram] == [3]

    def test_d15(self):
        ring = make_ring(15)
        assert [p for p, _ in ramified_primes(ring)] == [3, 5]


class TestQuotientAndUnits:
    @pytest.mark.parametrize("d", D_CORPUS)
    def test_quotient_order_two_on_corpus(self, d):
        report = invariant_principal_quotient(make_ring(d))
        assert report.order == 2

    def test_d1_subsets(self):
        report = invariant_principal_quotient(make_ring(1))
        keys = {subset for subset, _ in report.principal_subsets}
        assert keys == {(), (2,)}

    def test_d5_subsets(self):
        report = invariant_principal_quotient(make_ring(5))
        keys = {subset for subset, _ in report.principal_subsets}
        assert keys == {(), (5,)}

    def test_unit_group_sizes(self):
        assert len(unit_group(make_ring(1)).elements) == 4
        assert len(unit_group(make_ring(3)).elements) == 6
        assert len(unit_group(make_ring(2)).elements) == 2

    @pytest.mark.parametrize("d", D_CORPUS)
    def test_unit_h1_order_two(self, d):
        assert unit_h1(make_ring(d)).order == 2

    @pytest.mark.parametrize("d", D_CORPUS)
    def test_units_iso(self, d):
        report = verify_units_iso(make_ring(d))
        assert report.matched
        assert report.h1.order == report.quotient.order

    def test_d1_witness_is_minus_i(self):
        ring = make_ring(1)
        report = verify_units_iso(ring)
        nontrivial = next(p for p in report.pairs if p[0] == (2,))
        _, gen, cls = nontrivial
        ratio_num = ring.mul(ring.conj(gen), ring.conj(gen))
        # conj(1+i)/(1+i) = -i up to the unit choice of generator
        ratio = (
            ratio_num[0] // ring.norm(gen),
            ratio_num[1] // ring.norm(gen),
        )
        assert ratio in {(0, -1), (0, 1)}  # -i or i depending on generator sign
        assert cls != report.h1.distinguished
