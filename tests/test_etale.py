import functools
import itertools
import math
import re

import pytest

from cocycle import etale, groups
from cocycle.errors import CounterexampleFound, NotAField, SizeLimit
from cocycle.etale import (
    EtaleAlgebra,
    classify_etale,
    discriminant_is_trivial,
    factor_structure,
    fixing_kernel,
    is_cyclic_field,
    is_field,
    is_galois,
    realize_over_fq,
    trace_discriminant_matches_sign,
    trace_form_determinant,
)
from cocycle.fields import make_tower
from cocycle.groups import (
    cyclic_group,
    perm_cycle_type,
    perm_sign,
    symmetric_group,
    trivial_group,
)


def conjugacy_class_oracle(n: int, m: int) -> int:
    """Distinct cycle types of S_m elements whose order divides n."""
    sym = symmetric_group(m)
    types = set()
    for g in sym.elements():
        if sym.element_order(g) in {d for d in range(1, n + 1) if n % d == 0}:
            types.add(perm_cycle_type(sym.perms[g]))
    return len(types)


def partition_oracle(n: int, m: int) -> int:
    """Partitions of m with every part dividing n."""
    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for part in range(min(total, cap), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest

    return sum(1 for p in partitions(m, m) if all(n % part == 0 for part in p))


def all_partitions_count(m: int) -> int:
    return partition_oracle(math.lcm(*range(1, m + 1)), m)


class TestClassify:
    def test_trivial_gamma(self):
        classes = classify_etale(trivial_group(), 3)
        assert len(classes) == 1
        assert factor_structure(classes[0]) == (1, 1, 1)

    def test_z2_m2(self):
        classes = classify_etale(cyclic_group(2), 2)
        assert len(classes) == 2
        structures = {factor_structure(c) for c in classes}
        assert structures == {(1, 1), (2,)}

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 6))
    def test_counts_match_both_oracles(self, n, m):
        count = len(classify_etale(cyclic_group(n), m))
        assert count == conjugacy_class_oracle(n, m)
        assert count == partition_oracle(n, m)

    def test_partition_numbers(self):
        # p(4) = 5 and p(5) = 7, reached once n kills every part lcm
        assert all_partitions_count(4) == 5
        assert all_partitions_count(5) == 7
        assert partition_oracle(12, 4) == 5
        assert partition_oracle(60, 5) == 7

    def test_representative_is_least(self):
        for cls in classify_etale(cyclic_group(4), 3):
            assert cls.psi.image == min(
                tuple(cls.psi.target.conj(s, x) for x in cls.psi.image)
                for s in cls.psi.target.elements()
            )


class TestPredicates:
    def test_is_field(self):
        classes = classify_etale(cyclic_group(2), 2)
        by_structure = {factor_structure(c): c for c in classes}
        assert not is_field(by_structure[(1, 1)])
        assert is_field(by_structure[(2,)])

    def test_field_iff_single_factor(self):
        for n, m in [(2, 3), (4, 4), (6, 3)]:
            for cls in classify_etale(cyclic_group(n), m):
                assert is_field(cls) == (factor_structure(cls) == (m,))

    def test_fixing_kernel_injective_quotient(self):
        for cls in classify_etale(cyclic_group(6), 3):
            kernel = fixing_kernel(cls)
            assert kernel.is_normal()
            assert kernel.order * cls.image.order == cls.gamma.order

    def test_fixing_kernel_trivial_hom(self):
        cls = classify_etale(cyclic_group(3), 2)[0]
        assert factor_structure(cls) == (1, 1)
        assert fixing_kernel(cls).order == 3

    def test_is_galois_regular(self):
        classes = classify_etale(cyclic_group(4), 4)
        field_classes = [c for c in classes if is_field(c)]
        assert field_classes
        for cls in field_classes:
            galois, group = is_galois(cls)
            assert galois  # cyclic image acting on itself is regular
            assert group.order == 4

    def test_is_galois_not_field(self):
        cls = classify_etale(cyclic_group(2), 3)[0]
        with pytest.raises(NotAField):
            is_galois(cls)

    def test_m1_always_galois(self):
        cls = classify_etale(cyclic_group(2), 1)[0]
        galois, group = is_galois(cls)
        assert galois and group.order == 1

    def test_cyclic_field(self):
        classes = classify_etale(cyclic_group(4), 4)
        for cls in classes:
            if factor_structure(cls) == (4,):
                assert is_cyclic_field(cls)
            if factor_structure(cls) == (2, 2):
                assert not is_cyclic_field(cls)

    def test_discriminant(self):
        classes = classify_etale(cyclic_group(2), 2)
        by_structure = {factor_structure(c): c for c in classes}
        assert discriminant_is_trivial(by_structure[(1, 1)])
        assert not discriminant_is_trivial(by_structure[(2,)])

    def test_discriminant_trivial_iff_even_image(self):
        sym = symmetric_group(4)
        for cls in classify_etale(cyclic_group(4), 4):
            even = all(perm_sign(sym.perms[g]) == 1 for g in cls.image.members)
            assert discriminant_is_trivial(cls) == even

    def test_odd_galois_parity(self):
        for cls in classify_etale(cyclic_group(3), 3):
            if is_field(cls):
                assert discriminant_is_trivial(cls)

    def test_cyclic_gamma_field_classes_are_galois(self):
        # over a cyclic group, a transitive image is generated by an m-cycle,
        # so every field class is a cyclic (hence Galois) extension
        for n in range(1, 7):
            for m in range(1, 6):
                for cls in classify_etale(cyclic_group(n), m):
                    if is_field(cls):
                        galois, group = is_galois(cls)
                        assert galois and group.order == m
                        assert is_cyclic_field(cls)

    def test_cyclic_gamma_is_cyclic_exactly_on_fields(self):
        # a cyclic image is generated by an m-cycle exactly when it is transitive;
        # Z/6 through (123)(45) on six points is cyclic of order 6 but no field
        for n in range(1, 7):
            for m in range(1, 7):
                for cls in classify_etale(cyclic_group(n), m):
                    assert is_cyclic_field(cls) == is_field(cls), (n, m, cls.psi.image)

    def test_nonabelian_gamma_non_galois_field(self):
        # the faithful S3 class on three points is a field but not Galois
        # (point stabilizers have order 2)
        s3 = symmetric_group(3)
        classes = classify_etale(s3, 3)
        faithful = [c for c in classes if c.image.order == 6]
        assert faithful
        for cls in faithful:
            assert is_field(cls)
            galois, group = is_galois(cls)
            assert not galois and group is None
            assert not is_cyclic_field(cls)


class TestRealize:
    def test_split_algebra(self):
        t = make_tower(3, 1, 2)
        trivial_cls = classify_etale(cyclic_group(2), 2)[0]
        assert factor_structure(trivial_cls) == (1, 1)
        algebra = realize_over_fq(t, trivial_cls)
        assert algebra.factor_degrees == (1, 1)

    def test_quadratic_field_over_f3(self):
        t = make_tower(3, 1, 2)
        classes = classify_etale(cyclic_group(2), 2)
        field_cls = next(c for c in classes if is_field(c))
        algebra = realize_over_fq(t, field_cls)
        assert algebra.factor_degrees == (2,)

    def test_f4_times_f2(self):
        t = make_tower(2, 1, 2)
        classes = classify_etale(cyclic_group(2), 3)
        cls = next(c for c in classes if factor_structure(c) == (2, 1))
        algebra = realize_over_fq(t, cls)
        assert algebra.factor_degrees == (2, 1)

    def test_all_classes_n3_m3_over_f8(self):
        t = make_tower(2, 1, 3)
        for cls in classify_etale(cyclic_group(3), 3):
            algebra = realize_over_fq(t, cls)
            assert algebra.factor_degrees == factor_structure(cls)

    def test_multiply_matches_the_product_in_k_m(self):
        # x y in basis coordinates, against the coordinatewise product of the K^m vectors
        t = make_tower(3, 1, 2)
        for cls in classify_etale(cyclic_group(2), 3):
            algebra = realize_over_fq(t, cls)

            def vector(coords):
                terms = [[t.mul(c, x) for x in b] for c, b in zip(coords, algebra.basis)]
                return tuple(functools.reduce(t.add, column) for column in zip(*terms))

            for x, y in itertools.product(itertools.product(t.k_elements, repeat=3), repeat=2):
                want = tuple(t.mul(a, b) for a, b in zip(vector(x), vector(y)))
                assert vector(algebra.multiply(x, y)) == want

    def test_rejects_mismatched_tower(self):
        t = make_tower(3, 1, 2)
        cls = classify_etale(cyclic_group(3), 2)[0]
        with pytest.raises(ValueError):
            realize_over_fq(t, cls)

    def test_element_count_is_bounded_before_the_first_chunk(self, monkeypatch):
        # validation walks the 3^3 elements of an algebra over F_3
        t, cls = make_tower(3, 1, 2), classify_etale(cyclic_group(2), 3)[0]
        monkeypatch.setattr(etale, "DEFAULT_MAX_CANDIDATES", 27)
        assert realize_over_fq(t, cls).factor_degrees == (1, 1, 1)
        monkeypatch.setattr(etale, "DEFAULT_MAX_CANDIDATES", 26)
        streams = []
        monkeypatch.setattr(groups, "product_chunks", lambda *args: streams.append(args))
        with pytest.raises(SizeLimit, match="^27 algebra elements exceed bound 26$"):
            realize_over_fq(t, cls)
        assert streams == []

    def test_trace_form_nondegenerate(self):
        t = make_tower(3, 1, 2)
        for cls in classify_etale(cyclic_group(2), 2):
            algebra = realize_over_fq(t, cls)
            assert trace_form_determinant(algebra) != 0


class TestDiscriminantOverFq:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 4), (3, 3), (4, 4), (3, 4)])
    def test_square_class_matches_sign(self, p, n, m):
        t = make_tower(p, 1, n)
        for cls in classify_etale(cyclic_group(n), m):
            assert trace_discriminant_matches_sign(t, cls)


def _algebra(spec, structure, one):
    """An unvalidated algebra on the standard basis, with the given constants."""
    m = len(one)
    basis = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    return EtaleAlgebra(make_tower(*spec), m, structure, one, basis, ())


SPLIT = (((1, 0), (0, 0)), ((0, 0), (0, 1)))  # k x k on its two idempotents


class TestValidation:
    def test_split_algebra_passes(self):
        assert etale._with_validation(_algebra((3, 1, 2), SPLIT, (1, 1))).factor_degrees == (1, 1)

    @pytest.mark.parametrize(
        "structure,one,message",
        [
            # b0 b1 = b0 but b1 b0 = 0
            ((((1, 0), (1, 0)), ((0, 0), (0, 1))), (1, 1), "not commutative"),
            # b0 b0 = b1, b0 b1 = b0, b1 b1 = 0: (b0 b0) b1 = 0 but b0 (b0 b1) = b1
            ((((0, 1), (1, 0)), ((1, 0), (0, 0))), (1, 0), "not associative"),
            (SPLIT, (1, 0), "unit fails"),
        ],
    )
    def test_broken_laws_are_named(self, structure, one, message):
        with pytest.raises(CounterexampleFound, match=f"^{message}$"):
            etale._with_validation(_algebra((3, 1, 2), structure, one))

    @pytest.mark.parametrize(
        "spec,structure,one,witness",
        [
            # k[x]/(x^2) on (1, x) over F3: x = (0, 1) comes first
            ((3, 1, 2), (((1, 0), (0, 1)), ((0, 1), (0, 0))), (1, 0), "(0, 1)"),
            # on (x, 1) over F4 = {0, 1, 6, 7}: (0, 6) squares to (0, 7), so x = (1, 0) is first
            ((2, 2, 2), (((0, 0), (1, 0)), ((1, 0), (0, 1))), (0, 1), "(1, 0)"),
        ],
    )
    @pytest.mark.parametrize("chunk", [None, 1])
    def test_first_nilpotent_is_named(self, monkeypatch, spec, structure, one, witness, chunk):
        if chunk is not None:  # one element per chunk
            monkeypatch.setattr(groups, "ENGINE_CHUNK", chunk)
        message = re.escape(f"nonzero nilpotent {witness}")
        with pytest.raises(CounterexampleFound, match=f"^{message}$"):
            etale._with_validation(_algebra(spec, structure, one))
