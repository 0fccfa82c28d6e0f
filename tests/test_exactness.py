import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cocycle import exactness, snf
from cocycle.cohomology import (
    conjugation_action,
    h1,
    inversion_action,
    make_cocycle,
    restrict_to_subgroup,
    trivial_action,
)
from cocycle.errors import CounterexampleFound, MatchFailure, NotStable, SizeLimit
from cocycle.exactness import (
    connecting_delta,
    coset_to_cocycle,
    fixed_cosets,
    h2_brute_force_order,
    h2_central,
    orbit_kernel_bijection,
    presentation_of_subgroup,
    quotient_gamma_group,
    six_term_check,
    trivial_module,
)
from cocycle.groups import (
    GroupHom,
    Subgroup,
    cyclic_group,
    direct_product,
    identity_hom,
    make_group,
    perm_sign,
    symmetric_group,
    trivial_group,
    whole_subgroup,
)
from cocycle.snf import cokernel_invariant_factors, smith_normal_form

import smith_oracle


def mu4_inversion():
    return inversion_action(cyclic_group(2), cyclic_group(4))


def s3_conj_by_transposition():
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    t = next(a for a in s3.elements() if s3.perms[a] == (1, 0, 2))
    return conjugation_action(z2, s3, GroupHom.make(z2, s3, (s3.identity, t)))


class TestSmith:
    """``cocycle.snf`` works over Z/N only and returns arrays; ``smith_oracle``
    keeps the integer and modular forms the package ran before."""

    MODULI = (2, 6, 12, 36, 360)

    def test_diagonal_chain(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        integer = smith_oracle.smith_normal_form(m).diagonal()
        for modulus in self.MODULI:
            diag, _, _ = smith_normal_form(m, modulus)
            diag = [math.gcd(x, modulus) for x in diag.tolist()]
            assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
            assert diag == [math.gcd(x, modulus) for x in integer]

    def test_zero_matrix(self):
        for modulus in self.MODULI:
            diag, _, _ = smith_normal_form([[0, 0], [0, 0]], modulus)
            assert diag.tolist() == [0, 0]

    @pytest.mark.parametrize("modulus", [1, 0, -4])
    def test_modulus_below_two_is_rejected(self, modulus):
        with pytest.raises(ValueError, match="N >= 2"):
            smith_normal_form([[1, 2], [3, 4]], modulus)

    @pytest.mark.parametrize(
        "modulus", [2, 3, 4, 6, 8, 9, 12, 27, 30, 36, 97, 125, 210, 360, (1 << 40) + 15]
    )
    def test_modular_form_matches_the_integer_form(self, modulus):
        # Z^r / (M Z^c + N Z^r) is the sum of Z/gcd(d_i, N) for either form's diagonal,
        # and the kernel of M is V diag(N / gcd(d_i, N)) Z^c + N Z^c
        rng = random.Random(modulus)
        shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)] + [(30, 2), (2, 30)]
        for rows, cols in shapes:
            m = [
                [rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            diag, v, v_inv = smith_normal_form(m, modulus)
            got = [math.gcd(x, modulus) for x in diag.tolist()]
            integer = smith_oracle.smith_normal_form(m)
            assert got == [math.gcd(x, modulus) for x in integer.diagonal()]
            assert all(b % a == 0 for a, b in zip(got, got[1:]))
            assert all(isinstance(a, np.ndarray) for a in (diag, v, v_inv))
            assert all(0 <= x < modulus for a in (diag, v, v_inv) for x in a.ravel().tolist())
            scale = [modulus // g for g in got] + [1] * (cols - len(got))
            kernel = np.array(m, dtype=object) @ v.astype(object) * scale
            assert not (kernel % modulus).any()
            assert (v.astype(object) @ v_inv % modulus == np.eye(cols, dtype=int)).all()

    @pytest.mark.parametrize("modulus", [4, 12, 27])
    def test_a_corrupted_elimination_fails_its_certificate(self, modulus):
        # the check raises, so it holds under python -O; a stored multiplier and
        # an entry of V are each one changed value away from a wrong kernel
        m = [[2, 4, 4, 1], [-6, 6, 12, 3], [10, 4, 16, 0], [1, 1, 1, 1], [5, 0, 2, 2]]
        for p, q in snf._prime_powers(modulus):
            perm, a, v, v_inv = snf._eliminate(m, p, q)
            snf._certify(m, q, perm, a, v, v_inv)
            for array, index in ((a, (len(m) - 1, 0)), (v, (0, 1))):
                array[index] = (array[index] + 1) % q
                with pytest.raises(MatchFailure, match="SNF self-check failed"):
                    snf._certify(m, q, perm, a, v, v_inv)
                array[index] = (array[index] - 1) % q

    @pytest.mark.parametrize("modulus", [2, 12, 360, (1 << 40) + 15])
    def test_cokernel_matches_the_reference(self, modulus):
        # random relations on Z^a: the same factors as the reference, and
        # coords . lifts^T is the identity modulo the factors
        rng = random.Random(modulus + 1)
        for _ in range(30):
            rank, count = rng.randint(1, 6), rng.randint(0, 6)
            relations = [
                [rng.randint(-9, 9) if rng.random() < 0.5 else 0 for _ in range(count)]
                for _ in range(rank)
            ]
            factors, lifts, coords = cokernel_invariant_factors(relations, modulus)
            expected, _, _ = smith_oracle.cokernel_invariant_factors(relations, rank, modulus)
            assert factors.tolist() == expected
            assert lifts.shape == (len(expected), rank) and coords.shape == (len(expected), rank)
            product = (coords @ lifts.T) % factors[:, None]
            assert (product == np.eye(len(expected), dtype=np.int64)).all()

    def test_prime_powers_match_trial_division(self):
        for n in range(2, 5000):
            expected, m, p = [], n, 2
            while m > 1:
                p = m if p * p > m else p  # no factor up to sqrt(m) is left: m is prime
                if m % p == 0:
                    expected.append((p, math.gcd(m, p**13)))  # 2^13 > 5000
                    m //= expected[-1][1]
                p += 1
            assert snf._prime_powers(n) == tuple(expected)

    def test_large_prime_factors_split_at_once(self):
        # trial division takes minutes on the prime 2^61 - 1 and seconds on a product of two
        # 31-bit primes; the H2 below is the first Smith form of such a modulus
        code = """if True:
            from cocycle import cyclic_group, h2_central, snf, trivial_module
            assert snf._prime_powers(2**61 - 1) == ((2**61 - 1, 2**61 - 1),)
            assert snf._prime_powers(2147483629 * 2147483647) == (
                (2147483629, 2147483629), (2147483647, 2147483647))
            z2 = cyclic_group(2)
            assert h2_central(z2, trivial_module(z2, (2**61 - 1,))).invariant_factors == ()
            """
        env = {**os.environ, "PYTHONPATH": str(Path(snf.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, timeout=30, check=True)


class TestFixedCosets:
    def test_a_equals_b(self):
        gg = mu4_inversion()
        space = fixed_cosets(gg, whole_subgroup(gg.base))
        assert len(space.cosets) == 1
        assert space.fixed == (0,)
        assert space.orbits == ((0,),)

    def test_trivial_gamma(self):
        gg = trivial_action(trivial_group(), cyclic_group(4))
        space = fixed_cosets(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert len(space.fixed) == 2
        assert len(space.orbits) == 1  # B^Gamma = B acts transitively on cosets

    def test_mu4_two_fixed_two_orbits(self):
        gg = mu4_inversion()
        space = fixed_cosets(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert len(space.cosets) == 2
        assert space.fixed == (0, 1)
        assert len(space.orbits) == 2

    def test_not_stable(self):
        gg = s3_conj_by_transposition()
        s3 = gg.base
        other = next(a for a in s3.elements() if s3.perms[a] == (0, 2, 1))
        bad = Subgroup.from_members(s3, s3.generated_subgroup([other]))
        with pytest.raises(NotStable):
            fixed_cosets(gg, bad)


class TestCosetToCocycle:
    def test_invariant_rep_gives_trivial(self):
        gg = mu4_inversion()
        space = fixed_cosets(gg, Subgroup.from_members(gg.base, [0, 2]))
        coset0 = space.coset_of[0]
        cocycle = coset_to_cocycle(space, coset0)
        assert cocycle.values == (0,) * 2

    def test_mu4_nontrivial_coset(self):
        gg = mu4_inversion()
        space = fixed_cosets(gg, Subgroup.from_members(gg.base, [0, 2]))
        coset1 = space.coset_of[1]  # coset {i, -i}, least representative i
        cocycle = coset_to_cocycle(space, coset1)
        # alpha_sigma = i^-1 * i^sigma = -1, the nontrivial element of {±1}
        embed = space.inclusion.hom.image
        assert embed[cocycle.values[1]] == 2

    def test_trivial_action_only_coboundaries(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        space = fixed_cosets(gg, Subgroup.from_members(gg.base, [0, 2]))
        for i in space.fixed:
            assert coset_to_cocycle(space, i).values == (0, 0)


class TestOrbitKernelBijection:
    def test_a_equals_b(self):
        gg = mu4_inversion()
        report = orbit_kernel_bijection(gg, whole_subgroup(gg.base))
        assert report.n_orbits == 1
        assert len(report.kernel_classes) == 1

    def test_mu4(self):
        gg = mu4_inversion()
        report = orbit_kernel_bijection(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert report.n_orbits == 2
        assert len(report.kernel_classes) == 2

    def test_s3_with_a3(self):
        gg = s3_conj_by_transposition()
        s3 = gg.base
        a3 = Subgroup.from_members(
            s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1]
        )
        report = orbit_kernel_bijection(gg, a3)
        assert report.n_orbits == len(report.kernel_classes)

    def test_full_inner_action_of_s3(self):
        s3 = symmetric_group(3)
        gg = conjugation_action(s3, s3, identity_hom(s3))
        a3 = Subgroup.from_members(
            s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1]
        )
        report = orbit_kernel_bijection(gg, a3)
        assert report.n_orbits == len(report.kernel_classes)


class TestDoctoredDescent:
    """Both consumers of the descent rows reject a row that is not a cocycle
    (ValueError from the class lookup) and a value outside A."""

    CHECKS = [orbit_kernel_bijection, six_term_check]

    @pytest.mark.parametrize("check", CHECKS, ids=["bijection", "six-term"])
    def test_non_cocycle_row(self, check, monkeypatch):
        gg = mu4_inversion()
        descent_rows = exactness._descent_rows

        def doctored(space, cosets):
            rows = descent_rows(space, cosets).copy()
            rows[-1, gg.gamma.identity] = 1  # a cocycle is trivial at the identity
            return rows

        monkeypatch.setattr(exactness, "_descent_rows", doctored)
        with pytest.raises(ValueError, match="cocycle not in the enumerated set"):
            check(gg, Subgroup.from_members(gg.base, [0, 2]))

    @pytest.mark.parametrize("check", CHECKS, ids=["bijection", "six-term"])
    def test_value_outside_the_subgroup(self, check, monkeypatch):
        gg = mu4_inversion()
        real = fixed_cosets

        def shrunk(parent, sub):  # the descent value -1 of coset {i, -i} is not in {1}
            trivial = Subgroup.from_members(parent.base, [0])
            return dataclasses.replace(real(parent, sub), sub=trivial)

        monkeypatch.setattr(exactness, "fixed_cosets", shrunk)
        with pytest.raises(CounterexampleFound, match="escaped the subgroup"):
            check(gg, Subgroup.from_members(gg.base, [0, 2]))


class TestQuotientGammaGroup:
    def test_induced_action(self):
        gg = mu4_inversion()
        quot, proj = quotient_gamma_group(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert quot.base.order == 2
        for g in range(2):
            for b in range(4):
                assert proj.hom(gg.act(g, b)) == quot.act(g, proj.hom(b))

    def test_stability_is_checked_before_normality(self):
        # <(2 3)> in S3 is neither stable under conjugation by (1 2) nor normal
        gg = s3_conj_by_transposition()
        s3 = gg.base
        other = next(a for a in s3.elements() if s3.perms[a] == (0, 2, 1))
        bad = Subgroup.from_members(s3, s3.generated_subgroup([other]))
        with pytest.raises(NotStable) as restricted:
            restrict_to_subgroup(gg, bad)
        with pytest.raises(NotStable) as quotient:
            quotient_gamma_group(gg, bad)
        assert quotient.value.witness == restricted.value.witness

    def test_subgroup_of_another_group(self):
        gg = mu4_inversion()
        with pytest.raises(ValueError, match="parent's base group"):
            quotient_gamma_group(gg, Subgroup.from_members(cyclic_group(4), [0, 2]))


class TestSixTerm:
    def test_trivial_subgroup(self):
        gg = mu4_inversion()
        report = six_term_check(gg, Subgroup.from_members(gg.base, [0]))
        assert report.exact, report.details

    def test_mu4(self):
        gg = mu4_inversion()
        report = six_term_check(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert report.exact, report.details

    def test_z4_trivial_action(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        report = six_term_check(gg, Subgroup.from_members(gg.base, [0, 2]))
        assert report.exact, report.details

    def test_s3_normal_a3(self):
        gg = s3_conj_by_transposition()
        s3 = gg.base
        a3 = Subgroup.from_members(
            s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1]
        )
        report = six_term_check(gg, a3)
        assert report.exact, report.details


def cyclic_by_element_order(n):
    """Z/n, n a power of 2, with its elements listed by increasing order: its greedy
    generators have orders 2, 4, ..., n, each a power of the next."""
    z = cyclic_group(n)
    listed = sorted(z.elements(), key=lambda x: (z.element_order(x), x))
    at = np.argsort(listed)
    return make_group(at[z.table[np.ix_(listed, listed)]])


class TestRelationSearch:
    def test_the_box_is_sized_before_it_is_allocated(self, monkeypatch):
        # a box of 2 * 4 * 8 * 16 * 32 = 2^15 exponent vectors over 32 elements, counted
        # at 3.4 MB; the count bound of 10^6 would have passed it at any budget
        group = cyclic_by_element_order(32)
        assert [group.element_order(g) for g in group.generators()] == [2, 4, 8, 16, 32]
        assert exactness._decompose_abelian(group)[0] == (32,)
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="relation search"):
                exactness._decompose_abelian(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestAbelianPresentation:
    def test_trivial_module(self):
        pres = trivial_module(cyclic_group(3), (2,))
        assert pres.module_order == 2

    def test_rejects_bad_chain(self):
        with pytest.raises(ValueError):
            trivial_module(cyclic_group(2), (3, 2))

    @pytest.mark.parametrize(
        "factors,entry,field",
        [((2,), 1.5, "action matrix entries"), ((2,), True, "action matrix entries"),
         ((2.0,), 1, "invariant factors"), ((True, 2), 1, "invariant factors")],
    )
    def test_rejects_non_integers(self, factors, entry, field):
        # np.array(..., dtype=np.int64) would truncate 1.5 and read True as 1
        z2 = cyclic_group(2)
        k = len(factors)
        ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        moved = ((entry,) + ident[0][1:],) + ident[1:]
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            exactness.AbelianPresentation(z2, factors, (ident, moved))

    @pytest.mark.parametrize(
        "factors,entry,field",
        [((2**70,), 1, "invariant factors"), ((2,), 2**70 + 1, "action matrix entries"),
         ((2,), -(2**63) - 1, "action matrix entries")],
    )
    def test_rejects_integers_beyond_int64(self, factors, entry, field):
        # np.array(..., dtype=np.int64) would raise numpy's OverflowError
        z2 = cyclic_group(2)
        with pytest.raises(ValueError, match=f"{field} must fit in 64 bits"):
            exactness.AbelianPresentation(z2, factors, (((1,),), ((entry,),)))

    def test_numpy_integers_are_accepted(self):
        z2 = cyclic_group(2)
        one = ((np.int64(1),),)
        pres = exactness.AbelianPresentation(z2, (np.int32(2),), (one, one))
        assert h2_central(z2, pres).invariant_factors == (2,)

    @pytest.mark.parametrize("negation", [-1, 3 * 2**61 - 1])
    def test_entries_whose_products_leave_int64(self, negation):
        # over Z/(3 * 2^61), negation as 3 * 2^61 - 1 squares to past 2^63
        z2 = cyclic_group(2)
        pres = exactness.AbelianPresentation(z2, (3 * 2**61,), (((1,),), ((negation,),)))
        assert h2_central(z2, pres).invariant_factors == (2,)

    @pytest.mark.parametrize(
        "gamma",
        [cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(2)), symmetric_group(3)],
        ids=["Z6", "V4", "S3"],
    )
    def test_composition_broken_off_the_generators_is_refused(self, gamma):
        # negation over Z/3 at one element outside the generators, identity elsewhere
        gens = gamma.short_generators()
        c = max(g for g in gamma.elements() if g not in gens and g != gamma.identity)
        mats = tuple(((2 if g == c else 1,),) for g in gamma.elements())
        with pytest.raises(ValueError, match=r"do not compose at gamma pair \(\d+,(\d+)\)") as exc:
            exactness.AbelianPresentation(gamma, (3,), mats)
        named = int(str(exc.value).rstrip(")").rsplit(",", 1)[1])
        assert named in gens

    def test_composition_check_is_sized_before_it_allocates(self, monkeypatch):
        z1000 = cyclic_group(1000)
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        with pytest.raises(SizeLimit, match="module composition check"):
            trivial_module(z1000, (2,) * 10)  # 2 * 1000 * 1 generator * 10^2 int64

    def test_decomposition_of_v4(self):
        z2 = cyclic_group(2)
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        bridge = presentation_of_subgroup(
            trivial_action(z2, v4), whole_subgroup(v4)
        )
        assert bridge.presentation.factors == (2, 2)
        assert len(bridge.to_coords) == 4

    def test_decomposition_of_z6(self):
        z2 = cyclic_group(2)
        z6 = cyclic_group(6)
        bridge = presentation_of_subgroup(trivial_action(z2, z6), whole_subgroup(z6))
        assert bridge.presentation.factors == (6,)

    def test_action_matrices_of_inversion(self):
        gg = mu4_inversion()
        bridge = presentation_of_subgroup(gg, whole_subgroup(gg.base))
        assert bridge.presentation.factors == (4,)
        assert bridge.presentation.matrices[1][0][0] % 4 == 3


class TestH2:
    def test_z2_z2_trivial(self):
        gamma = cyclic_group(2)
        pres = trivial_module(gamma, (2,))
        result = h2_central(gamma, pres)
        assert result.order == 2
        assert result.order == h2_brute_force_order(gamma, pres)

    def test_coprime_orders(self):
        gamma = cyclic_group(3)
        pres = trivial_module(gamma, (2,))
        result = h2_central(gamma, pres)
        assert result.order == 1
        assert h2_brute_force_order(gamma, pres) == 1

    def test_trivial_gamma(self):
        pres = trivial_module(trivial_group(), (4,))
        assert h2_central(trivial_group(), pres).order == 1

    @pytest.mark.parametrize(
        "gamma,factors",
        [
            (cyclic_group(2), (4,)),
            (cyclic_group(4), (2,)),
            (cyclic_group(2), (2, 2)),
            (cyclic_group(3), (3,)),
            (direct_product(cyclic_group(2), cyclic_group(2)), (2,)),
        ],
    )
    def test_engine_matches_oracle_trivial_actions(self, gamma, factors):
        pres = trivial_module(gamma, factors)
        assert h2_central(gamma, pres).order == h2_brute_force_order(gamma, pres)

    def test_engine_matches_oracle_inversion(self):
        # Z/2 acting on Z/4 by inversion: H2 = fixed / norms = {0,2}/{0} = Z/2
        gg = mu4_inversion()
        bridge = presentation_of_subgroup(gg, whole_subgroup(gg.base))
        result = h2_central(gg.gamma, bridge.presentation)
        assert result.order == 2
        assert h2_brute_force_order(gg.gamma, bridge.presentation) == 2

    def test_cyclic_theory(self):
        # H2(Z/n, Z/m trivial) = Z/gcd(n, m)
        import math

        for n in (2, 3, 4):
            for m in (2, 3, 4, 6):
                gamma = cyclic_group(n)
                res = h2_central(gamma, trivial_module(gamma, (m,)))
                assert res.order == math.gcd(n, m), (n, m)

    def test_nonabelian_gamma_classical_value(self):
        # H2(S3, Z/2 trivial) = Z/2
        s3 = symmetric_group(3)
        res = h2_central(s3, trivial_module(s3, (2,)))
        assert res.invariant_factors == (2,)

    def test_v4_classical_value(self):
        # H2(Z/2 x Z/2, Z/2 trivial) = (Z/2)^3
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        res = h2_central(v4, trivial_module(v4, (2,)))
        assert res.invariant_factors == (2, 2, 2)

    def test_size_limit(self, monkeypatch):
        # S6's relator walks and tails pass 1 MiB at its sixth relator, before its walks
        # are built; S5's largest buffer, the cocycle check of a generator, stays below
        gamma = symmetric_group(6)
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        with pytest.raises(SizeLimit, match="H2 relator tails needs 1175040 bytes"):
            h2_central(gamma, trivial_module(gamma, (2,)))
        s5 = symmetric_group(5)
        assert h2_central(s5, trivial_module(s5, (2,))).invariant_factors == (2, 2)


class TestConnectingDelta:
    def test_distinguished_maps_to_trivial(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        a = Subgroup.from_members(gg.base, [0, 2])
        quot, _ = quotient_gamma_group(gg, a)
        res = connecting_delta(gg, a, make_cocycle(quot, (quot.base.identity,) * 2))
        assert res.trivial

    def test_nonsplit_z4_extension(self):
        # A = {0,2} in B = Z/4, C = Z/2: the nontrivial class of Hom(Z/2, C)
        # has no lift through Z/4, so delta is nontrivial.
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        a = Subgroup.from_members(gg.base, [0, 2])
        quot, proj = quotient_gamma_group(gg, a)
        h1_quot = h1(quot)
        assert h1_quot.order == 2
        nontrivial = next(
            c for i, c in enumerate(h1_quot.classes) if i != h1_quot.distinguished
        )
        res = connecting_delta(gg, a, nontrivial)
        assert not res.trivial

    def test_split_v4_extension(self):
        # B = Z/2 x Z/2, A = first factor: every class lifts, delta trivial.
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        gg = trivial_action(cyclic_group(2), v4)
        a = Subgroup.from_members(v4, [0, 2])  # (1,0) has index 2
        quot, _ = quotient_gamma_group(gg, a)
        for cls in h1(quot).classes:
            assert connecting_delta(gg, a, cls).trivial

    def test_exactness_at_h1_of_quotient(self):
        from cocycle.cohomology import induced_map as imap

        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        a = Subgroup.from_members(gg.base, [0, 2])
        quot, proj = quotient_gamma_group(gg, a)
        h1_b, h1_c = h1(gg), h1(quot)
        image = set(imap(proj, h1_b, h1_c))
        for i, cls in enumerate(h1_c.classes):
            res = connecting_delta(gg, a, cls)
            assert res.trivial == (i in image)

    def test_rejects_noncentral(self):
        s3 = symmetric_group(3)
        gg = trivial_action(cyclic_group(2), s3)
        a3 = Subgroup.from_members(
            s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1]
        )
        quot, _ = quotient_gamma_group(gg, a3)
        with pytest.raises(ValueError):
            connecting_delta(gg, a3, make_cocycle(quot, (quot.base.identity,) * 2))
