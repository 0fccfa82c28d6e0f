"""H1Set over arrays: the class representatives as rows, batch class lookup, the
one-gather induced map, the packed row sort of the engine, and the
twisted-action count against the cocycle count."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import engine_oracle as oracle
from cocycle import cohomology
from cocycle.cohomology import (
    Cocycle,
    EquivariantHom,
    H1Set,
    action_from_gen_images,
    conjugation_action,
    h1,
    induced_map,
    inversion_action,
    is_cocycle,
    trivial_action,
)
from cocycle.errors import MatchFailure
from cocycle.groups import (
    automorphism_group,
    cyclic_group,
    direct_product,
    enumerate_homs,
    identity_hom,
    lex_order,
    symmetric_group,
)
from cocycle.twisted import enumerate_twisted_actions
from test_engine import drawn_actions, e


def transpositions_of_s3():
    """Z/2 acting trivially on S3: the three transpositions form one class of three."""
    parent = trivial_action(cyclic_group(2), symmetric_group(3))
    return parent, h1(parent)


class TestClassesAreRows:
    def test_h1_builds_no_cocycle(self, monkeypatch):
        made = []

        class Counting(Cocycle):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cohomology, "Cocycle", Counting)
        res = h1(trivial_action(e(3), e(4)))
        assert res.order == 4096 and made == []
        assert res.classes[5].values == tuple(res.classes.rows[5].tolist())
        assert len(made) == 1  # the patch is the class that reading an element builds

    def test_behaves_like_the_tuple_it_replaces(self):
        parent = trivial_action(e(2), e(2))
        res = h1(parent)
        classes, rows = res.classes, res.classes.rows.tolist()
        as_tuple = tuple(Cocycle(parent, tuple(r)) for r in rows)
        assert len(classes) == len(as_tuple) == res.order == 16
        assert tuple(classes) == as_tuple  # iteration order
        assert classes[0] == as_tuple[0] and classes[-1] == as_tuple[-1]
        assert classes[0] is not classes[0]  # built on each read
        with pytest.raises(IndexError):
            classes[16]
        for part in (slice(1, 3), slice(None, -1), slice(None, None, -3), slice(20, None)):
            assert type(classes[part]) is tuple and classes[part] == as_tuple[part]
        extra = (Cocycle(parent, tuple(rows[0])),)
        assert classes + extra == as_tuple + extra

    def test_rows_are_read_only_and_lexicographic(self):
        _, res = transpositions_of_s3()
        rows = res.classes.rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        assert rows.tolist() == sorted(rows.tolist())
        assert [members[0] for members in res.members] == list(map(tuple, rows.tolist()))

    def test_a_tuple_passed_in_is_converted_to_rows(self):
        parent, res = transpositions_of_s3()
        rebuilt = H1Set(parent, tuple(res.classes)[:-1], res.class_of, res.distinguished)
        assert rebuilt.order == res.order - 1
        assert np.array_equal(rebuilt.classes.rows, res.classes.rows[:-1])
        assert not rebuilt.classes.rows.flags.writeable
        empty = H1Set(parent, (), res.class_of, res.distinguished)
        assert empty.classes.rows.shape == (0, parent.gamma.order)

    def test_every_class_of_e4_on_itself(self):
        # (Z/2)^4 acting trivially on itself: every hom is its own class
        res = h1(trivial_action(e(4), e(4)))
        assert res.order == res.n_cocycles == 2**16
        assert res.classes.rows.shape == (2**16, 16)


class TestClassIndices:
    def test_batch_agrees_with_class_of_and_members(self):
        _, res = transpositions_of_s3()
        rows = [m for members in res.members for m in members]
        assert res.class_indices(rows).tolist() == [res.class_of[m] for m in rows]
        assert res.class_indices(res.class_of.rows).tolist() == res.class_of.index.tolist()
        assert dict(res.class_of) == {m: i for i, ms in enumerate(res.members) for m in ms}

    def test_arrays_are_read_only(self):
        _, res = transpositions_of_s3()
        assert not res.class_of.rows.flags.writeable
        with pytest.raises(TypeError):
            res.class_of[(0, 0)] = 0

    def test_non_cocycle_row_raises(self):
        parent = trivial_action(cyclic_group(4), cyclic_group(4))
        res = h1(parent)
        row = (1, 0, 0, 0)  # alpha(e) = 1 breaks the law
        assert not is_cocycle(parent, row)[0]
        with pytest.raises(ValueError, match="not in the enumerated set"):
            res.class_indices([(0, 0, 0, 0), row])
        with pytest.raises(ValueError, match="not in the enumerated set"):
            res.class_indices([(0, 5, 0, 0)])  # off the base

    def test_row_differing_after_the_generator_values_raises(self):
        parent = trivial_action(cyclic_group(4), cyclic_group(4))
        res = h1(parent)
        assert parent.gamma.short_generators() == (1,)
        assert (0, 1, 2, 3) in res.class_of  # the identity hom
        with pytest.raises(ValueError, match="not in the enumerated set"):
            res.class_indices([(0, 1, 2, 0)])  # same generator value, last column differs
        with pytest.raises(ValueError, match="not in the enumerated set"):
            res.class_index(Cocycle(parent, (0, 1, 2, 0)))

    def test_malformed_shape_raises(self):
        _, res = transpositions_of_s3()
        with pytest.raises(ValueError, match="shape"):
            res.class_indices([0, 0])
        with pytest.raises(ValueError, match="shape"):
            res.class_indices([(0, 0, 0)])

    def test_dict_is_converted_to_the_arrays(self):
        parent, res = transpositions_of_s3()
        as_dict = H1Set(parent, res.classes, dict(res.class_of), res.distinguished)
        assert as_dict.class_of == res.class_of
        assert np.array_equal(as_dict.class_of.rows, res.class_of.rows)
        assert as_dict.members == res.members


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(drawn_actions())
def test_class_indices_match_class_of_and_oracle_on_drawn_actions(parent):
    got, want = h1(parent), oracle.h1(parent)
    keys = sorted(want.class_of)
    rows = np.array(keys[::-1] + keys[:1])  # reversed, and a row asked twice
    batch = got.class_indices(rows).tolist()
    assert batch == [got.class_of[tuple(r)] for r in rows.tolist()]
    assert batch == [want.class_of[tuple(r)] for r in rows.tolist()]


class TestInducedMapChecksEveryMember:
    def split_target(self, parent, res, moved):
        """``res`` with the member ``moved`` put into a class of its own."""
        class_of = dict(res.class_of)
        class_of[moved] = res.order
        return H1Set(parent, res.classes + (Cocycle(parent, moved),), class_of, res.distinguished)

    def test_a_later_member_landing_elsewhere_raises(self):
        parent, res = transpositions_of_s3()
        (big,) = [members for members in res.members if len(members) == 3]
        f = EquivariantHom.make(parent, parent, identity_hom(parent.base))
        assert induced_map(f, res, res) == tuple(range(res.order))
        # the first two members still agree, so a two-member check passes
        split = self.split_target(parent, res, big[2])
        assert split.class_of[big[0]] == split.class_of[big[1]] != split.class_of[big[2]]
        with pytest.raises(MatchFailure, match="not constant on a class"):
            induced_map(f, res, split)

    def test_a_member_landing_outside_the_target_raises(self):
        parent, res = transpositions_of_s3()
        f = EquivariantHom.make(parent, parent, identity_hom(parent.base))
        (big,) = [members for members in res.members if len(members) == 3]
        class_of = {k: c for k, c in res.class_of.items() if k != big[1]}
        short = H1Set(parent, res.classes, class_of, res.distinguished)
        with pytest.raises(MatchFailure, match="left the target cocycles"):
            induced_map(f, res, short)


@pytest.mark.parametrize("n_values", [1, 2, 255, 256, 720, 40_320])
@pytest.mark.parametrize("n_cols", [1, 3, 16, 64])
def test_packed_sort_equals_lexsort(n_values, n_cols):
    rng = np.random.default_rng(n_values * 100 + n_cols)
    rows = rng.integers(0, n_values, size=(400, n_cols))
    rows[::5] = rows[7]  # ties keep their input order
    rows[1::9, : n_cols // 2] = rows[2, : n_cols // 2]  # long common prefixes
    assert np.array_equal(lex_order(rows, n_values), np.lexsort(rows.T[::-1]))


Z2Z2 = direct_product(cyclic_group(2), cyclic_group(2))
S3 = symmetric_group(3)
SMALL_GAMMAS = [cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4), Z2Z2, S3]
SMALL_BASES = [cyclic_group(n) for n in (1, 2, 3, 4, 5, 6)] + [Z2Z2, S3]


@st.composite
def small_actions(draw):
    """Actions with at most 500 semiaction vectors, so the twisted scan stays quick."""
    gamma = draw(st.sampled_from(SMALL_GAMMAS))
    base = draw(st.sampled_from([b for b in SMALL_BASES if b.order ** (gamma.order - 1) <= 500]))
    kind = draw(st.sampled_from(["trivial", "inversion", "conjugation", "automorphisms"]))
    if kind == "trivial":
        return trivial_action(gamma, base)
    if kind == "conjugation":
        return conjugation_action(gamma, base, draw(st.sampled_from(enumerate_homs(gamma, base))))
    try:
        if kind == "inversion":
            gens = gamma.generators()
            inverting = draw(st.lists(st.sampled_from(gens), unique=True)) if gens else []
            return inversion_action(gamma, base, inverting)
        autos = automorphism_group(base)
        images = {g: draw(st.sampled_from(autos)) for g in gamma.generators()}
        return action_from_gen_images(gamma, base, images)
    except ValueError:  # a nonabelian base, or rows that do not extend to an action
        assume(False)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(small_actions())
def test_twisted_action_count_is_cocycle_count(parent):
    assert len(enumerate_twisted_actions(parent)) == h1(parent).n_cocycles
