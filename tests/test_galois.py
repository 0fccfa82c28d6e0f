import itertools
import random
import time
import tracemalloc

import pytest

import matrix_oracle
from matrix_oracle import mat_frob, mat_identity, mat_mul
from cocycle import galois, groups
from cocycle.cohomology import h1
from cocycle.errors import MatchFailure, NotPrime, SizeLimit
from cocycle.fields import (
    enumerate_gl,
    enumerate_sl,
    least_irreducible,
    make_tower,
    mat_det,
    mat_inv,
)
from cocycle.galois import (
    SemilinearAction,
    automorphism_independence_check,
    classify_forms,
    det_image_on_rational_points,
    hilbert90_verify,
    invariant_basis,
    quadratic_form_tensor,
    sl_h1_verify,
    TensorOnV,
    units_gamma_group,
)


class TestTower:
    def test_f4(self):
        t = make_tower(2, 1, 2)
        assert t.size == 4
        assert t.modulus == [1, 1, 1]  # x^2 + x + 1
        assert set(t.k_elements) == {0, 1}

    def test_f9_frobenius_is_cube(self):
        t = make_tower(3, 1, 2)
        for a in range(t.size):
            assert t.frob(a) == t.pow(a, 3)

    def test_f8_galois_order_3(self):
        t = make_tower(2, 1, 3)
        assert t.n == 3
        assert t.frob(t.frob(t.frob(3))) == 3

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_tower(4, 1, 2)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            make_tower(2, 1, 25)

    def test_field_axioms_sampled(self):
        t = make_tower(5, 1, 2)
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rng.randrange(t.size) for _ in range(3))
            assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
            assert t.mul(a, b) == t.mul(b, a)
        for a in range(1, t.size):
            assert t.mul(a, t.inv(a)) == 1

    def test_intermediate_base_field(self):
        # F_16 over F_4: d = 2, n = 2
        t = make_tower(2, 2, 2)
        assert t.q == 4
        assert len(t.k_elements) == 4
        assert t.frob(t.frob(5)) == 5  # order-2 Galois group

    def test_norm_lands_in_base(self):
        t = make_tower(3, 1, 2)
        for a in range(1, t.size):
            assert t.in_base(t.norm_to_base(a))

    def test_least_irreducible_is_least(self):
        # over F_2, degree 2: x^2, x^2+1, x^2+x are reducible
        assert least_irreducible(2, 2) == [1, 1, 1]

    def test_k_coords_roundtrip(self):
        t = make_tower(3, 1, 2)
        for a in range(t.size):
            assert t.from_k_coords(t.k_coords(a)) == a


class TestMatrices:
    def test_gl_sl_counts_f4(self):
        t = make_tower(2, 1, 2)
        assert len(enumerate_gl(t, 2)) == 180
        assert len(enumerate_sl(t, 2)) == 60

    def test_det_multiplicative_sampled(self):
        t = make_tower(3, 1, 2)
        gl = enumerate_gl(t, 2)
        rng = random.Random(11)
        for _ in range(200):
            a, b = rng.choice(gl), rng.choice(gl)
            assert mat_det(t, mat_mul(t, a, b)) == t.mul(mat_det(t, a), mat_det(t, b))

    def test_inverse_roundtrip_all_invertibles(self):
        t = make_tower(2, 1, 2)
        ident = mat_identity(t, 2)
        for a in enumerate_gl(t, 2):
            assert mat_mul(t, a, mat_inv(t, a)) == ident

    def test_three_by_three(self):
        t = make_tower(2, 1, 2)
        a = ((1, 2, 0), (0, 1, 3), (2, 0, 1))
        inv = mat_inv(t, a)
        if inv is not None:
            assert mat_mul(t, a, inv) == mat_identity(t, 3)

    def test_frobenius_is_ring_hom_on_matrices(self):
        t = make_tower(3, 1, 2)
        a = ((2, 5), (1, 7))
        b = ((4, 1), (3, 8))
        assert mat_frob(t, mat_mul(t, a, b)) == mat_mul(t, mat_frob(t, a), mat_frob(t, b))


class TestIndependence:
    @pytest.mark.parametrize("p,d,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 1, 1)])
    def test_independent(self, p, d, n):
        assert automorphism_independence_check(make_tower(p, d, n))


class TestInvariantBasis:
    def test_untwisted(self):
        t = make_tower(2, 1, 2)
        basis = invariant_basis(SemilinearAction.from_generator(t, 2, mat_identity(t, 2)))
        assert len(basis) == 2
        for v in basis:
            assert all(t.in_base(x) for x in v)

    def test_one_dim_twist_by_generator(self):
        # A_sigma = omega (generator of F4*): fixed line exists over F2
        t = make_tower(2, 1, 2)
        omega = 2  # the class of x
        action = SemilinearAction.from_generator(t, 1, ((omega,),))
        basis = invariant_basis(action)
        assert len(basis) == 1
        v = basis[0][0]
        assert t.mul(omega, t.frob(v)) == v and v != 0

    def test_permutation_twist(self):
        t = make_tower(3, 1, 2)
        swap = ((0, 1), (1, 0))
        action = SemilinearAction.from_generator(t, 2, swap)
        basis = invariant_basis(action)
        assert len(basis) == 2
        for v in basis:
            assert action.apply(1, v) == v

    def test_rejects_bad_generator(self):
        # generator must satisfy the norm condition to extend to an action;
        # over F9/F3 the element x+1 has norm (x+1)^4 = -1 != 1
        t = make_tower(3, 1, 2)
        bad = 4  # digits (1, 1): the element x + 1
        assert t.norm_to_base(bad) != 1
        with pytest.raises(ValueError):
            SemilinearAction.from_generator(t, 1, ((bad,),))


class TestHilbert90:
    @pytest.mark.parametrize("p,n,m", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (5, 2, 1)])
    def test_scalar_cases(self, p, n, m):
        t = make_tower(p, 1, n)
        report = hilbert90_verify(t, m)
        # number of norm-one elements = (q^n - 1)/(q - 1)
        expected = (t.size - 1) // (t.q - 1)
        assert report.n_cocycles == expected

    def test_f4_matrix_case(self):
        t = make_tower(2, 1, 2)
        report = hilbert90_verify(t, 2)
        assert report.group_size == 180

    def test_engine_cross_check_m1(self):
        # the generic cocycle engine on K* must also find a single class
        for (p, n) in [(2, 2), (3, 2), (2, 3)]:
            t = make_tower(p, 1, n)
            gamma_group, _ = units_gamma_group(t)
            assert h1(gamma_group).order == 1

    def test_gl3_over_f4(self):
        # |GL_3(F_4)| = 181440; cocycles number |GL_3(F_4)| / |GL_3(F_2)| = 1080
        t = make_tower(2, 1, 2)
        start = time.perf_counter()
        report = hilbert90_verify(t, 3)
        assert time.perf_counter() - start < 2.0
        assert (report.group_size, report.n_cocycles) == (181440, 1080)

    def test_sl3_over_f4(self):
        # |SL_3(F_4)| = 60480; cocycles number |SL_3(F_4)| / |SL_3(F_2)| = 360
        t = make_tower(2, 1, 2)
        start = time.perf_counter()
        report = sl_h1_verify(t, 3)
        assert time.perf_counter() - start < 2.0
        assert (report.group_size, report.n_cocycles) == (60480, 360)

    def test_sl_cases(self):
        t = make_tower(2, 1, 2)
        report = sl_h1_verify(t, 2)
        assert report.group_size == 60

    def test_sl_m1_trivial(self):
        t = make_tower(3, 1, 2)
        report = sl_h1_verify(t, 1)
        assert report.group_size == 1
        assert report.n_cocycles == 1

    def test_det_surjective_gl2_f3(self):
        t = make_tower(3, 1, 2)
        assert det_image_on_rational_points(t, 2) == {1, 2}

    def test_intermediate_tower_f16_over_f4(self):
        t = make_tower(2, 2, 2)
        report = hilbert90_verify(t, 1)
        assert report.n_cocycles == (t.size - 1) // (t.q - 1)  # 5 norm-one elements

    def test_invariant_basis_over_intermediate_field(self):
        t = make_tower(2, 2, 2)
        basis = invariant_basis(SemilinearAction.from_generator(t, 2, mat_identity(t, 2)))
        assert len(basis) == 2
        for v in basis:
            assert all(t.in_base(x) for x in v)


class TestForms:
    def test_binary_sum_of_squares_f3(self):
        t = make_tower(3, 1, 2)
        tensor = quadratic_form_tensor(t, ((1, 0), (0, 1)))
        report = classify_forms(t, tensor)
        assert report.n_classes == 2
        assert report.h1_stabilizer.order == 2

    def test_zero_tensor_single_class(self):
        t = make_tower(2, 1, 2)
        tensor = TensorOnV.make(t, 2, 2, 0, ((0, 0, 0, 0),))
        report = classify_forms(t, tensor)
        assert report.stabilizer_size == len(enumerate_gl(t, 2))
        assert report.n_classes == 1

    def test_oversized_stabilizer_rejected(self, monkeypatch):
        # GL_2(F_4) stabilizes the zero tensor: its 180 x 180 table is filled in one block
        # of 180^2 products, 8 int64 each, 2.1 MB, refused before the block is allocated
        t = make_tower(2, 1, 2)
        tensor = TensorOnV.make(t, 2, 2, 0, ((0, 0, 0, 0),))
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        with pytest.raises(SizeLimit, match="group table rows needs 2073600 bytes"):
            classify_forms(t, tensor)

    def test_the_stabilizer_byte_count_bounds_the_peak(self, monkeypatch):
        # groups sizes the stabilizer's table, 32,400 bytes, and one block of its rows,
        # 2,073,600; Z/2 is built after it, so each name keeps its largest request
        t = make_tower(2, 1, 2)
        tensor = TensorOnV.make(t, 2, 2, 0, ((0, 0, 0, 0),))
        asked, check = {}, groups.check_buffer

        def largest(n_items, item_bytes, what):
            asked[what] = max(asked.get(what, 0), n_items * item_bytes)
            check(n_items, item_bytes, what)

        monkeypatch.setattr(groups, "check_buffer", largest)
        tracemalloc.start()
        try:
            classify_forms(t, tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = asked["group multiplication table"] + asked["group table rows"]
        assert peak <= bound < 2 * peak

    def test_scalar_form(self):
        # m = 1, tau = x^2: classes are the square classes of k* meeting the orbit
        t = make_tower(3, 1, 2)
        tensor = TensorOnV.make(t, 1, 2, 0, ((1,),))
        report = classify_forms(t, tensor)
        assert report.n_classes == 2

    def test_invariant_tensors_are_rational(self):
        t = make_tower(3, 1, 2)
        tensor = quadratic_form_tensor(t, ((1, 0), (0, 1)))
        report = classify_forms(t, tensor)
        for orbit in report.direct_orbits:
            for coeffs in orbit:
                assert all(t.in_base(x) for row in coeffs for x in row)

    def test_gl_action_is_action(self):
        t = make_tower(2, 1, 2)
        tensor = quadratic_form_tensor(t, ((1, 0), (0, 1)))
        gl = enumerate_gl(t, 2)
        rng = random.Random(3)
        act = matrix_oracle.apply_to_tensor
        for _ in range(50):
            g, h = rng.choice(gl), rng.choice(gl)
            lhs = act(mat_mul(t, g, h), tensor).coeffs
            rhs = act(g, act(h, tensor)).coeffs
            assert lhs == rhs


class TestSemilinearAction:
    """Failure paths and results of the semilinear action, against scalar builds."""

    def test_wrong_number_of_matrices(self):
        t = make_tower(2, 1, 3)
        with pytest.raises(ValueError, match="^one matrix per Galois group element required$"):
            SemilinearAction.make(t, 2, [((1, 0), (0, 1))] * 2)

    def test_identity_element_must_act_trivially(self):
        t = make_tower(3, 1, 2)
        swap = ((0, 1), (1, 0))
        with pytest.raises(ValueError, match="identity Galois element must act by the identity"):
            SemilinearAction.make(t, 2, [swap, swap])

    def test_singular_matrix(self):
        t = make_tower(3, 1, 2)
        with pytest.raises(ValueError, match="^semilinear action matrices must be invertible$"):
            SemilinearAction.make(t, 2, [((1, 0), (0, 1)), ((1, 1), (1, 1))])

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: SemilinearAction.make(t, 2, [((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))]),
            lambda t: SemilinearAction.make(t, 2, [((1, 0), (0, 1)), ((1,), (0, 1))]),
            lambda t: SemilinearAction.make(t, 2, [((1, 0, 0), (0, 1, 0), (0, 0, 1))] * 2),
            lambda t: SemilinearAction.from_generator(t, 2, ((0, 1), (1,))),
        ],
    )
    def test_malformed_matrix_names_the_expected_shape(self, build):
        with pytest.raises(ValueError, match="^semilinear action matrices must be 2 x 2$"):
            build(make_tower(3, 1, 2))

    def test_composition_failure_names_the_first_pair(self):
        # swap^3 = swap != I over F8/F2: A = (I, S, I) first fails at A_1 A_2 = S != A_0
        t = make_tower(2, 1, 3)
        with pytest.raises(ValueError, match=r"^composition law fails at Galois pair \(1, 2\)$"):
            SemilinearAction.from_generator(t, 2, ((0, 1), (1, 0)))

    @pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (37, 1, 2)])
    def test_from_generator_matches_the_scalar_extension(self, spec):
        t = make_tower(*spec)
        b = 2  # the class of x; b^-1 b^frob has norm one
        scalar = t.mul(t.inv(b), t.frob(b))
        gens = [mat_identity(t, 2), ((scalar, 0), (0, 1))]
        if t.n % 2 == 0:
            gens.append(((0, 1), (1, 0)))
        for gen in gens:
            expected = [mat_identity(t, 2)]
            for j in range(1, t.n):
                expected.append(mat_mul(t, expected[-1], mat_frob(t, gen, j - 1)))
            action = SemilinearAction.from_generator(t, 2, gen)
            assert action.mats == tuple(expected)
            assert all(type(x) is int for a in action.mats for row in a for x in row)

    def test_apply_is_the_definition_on_every_vector(self):
        t = make_tower(2, 1, 2)
        action = SemilinearAction.from_generator(t, 2, ((0, 1), (1, 0)))
        for v in itertools.product(range(t.size), repeat=2):
            for j in range(-1, 2 * t.n):
                column = tuple((t.frob(x, j),) for x in v)
                expected = tuple(row[0] for row in mat_mul(t, action.mats[j % t.n], column))
                got = action.apply(j, v)
                assert got == expected and all(type(x) is int for x in got)


class TestGaloisHelpers:
    def test_independence_check_detects_a_disagreeing_rank(self, monkeypatch):
        monkeypatch.setattr(galois, "mat_rank", lambda tower, rows: 0)
        with pytest.raises(MatchFailure, match="rank and exhaustive independence checks disagree"):
            automorphism_independence_check(make_tower(2, 1, 2))

    @pytest.mark.parametrize("spec", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2)])
    def test_units_gamma_group_matches_scalar_arithmetic(self, spec):
        t = make_tower(*spec)
        gamma_group, units = units_gamma_group(t)
        assert units == tuple(range(1, t.size))
        table = [[t.mul(a, b) - 1 for b in units] for a in units]
        action = [[t.frob(u, j) - 1 for u in units] for j in range(t.n)]
        assert gamma_group.base.table.tolist() == table
        assert gamma_group.action.tolist() == action
        assert gamma_group.gamma.order == t.n

    def test_tensor_frob_matches_scalar_frobenius(self):
        t = make_tower(3, 1, 2)
        tensor = TensorOnV.make(t, 2, 1, 1, ((2, 5), (1, 7)))
        for j in range(-1, 3):
            assert tensor.frob(j).coeffs == mat_frob(t, tensor.coeffs, j)
