"""The crossed-hom engine on wide tables, and the extension plan it keeps per group.

The engine reads every table through ``groups._product`` at offsets a * |B| + b.
Under NumPy's NEP 50 a uint8 or uint16 index column times an int keeps its
dtype and wraps, so the bases here are the ones where a wrap would show: uint16
tables (order above 255) and uint8 tables whose offsets pass 255 (order 17 to
255). Each is compared with the full-pair reference in ``engine_oracle``.
"""

import random
import tracemalloc

import numpy as np
import pytest

import engine_oracle as oracle
from cocycle import groups
from cocycle.cohomology import (
    conjugation_action,
    h1,
    inversion_action,
    trivial_action,
)
from cocycle.groups import (
    automorphism_group,
    coboundary_classes,
    crossed_homs,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    homs_up_to_conjugacy,
    make_group,
    quaternion_group,
    symmetric_group,
)


def relabel(group, seed):
    """An isomorphic copy with permuted element indices; the identity moves off 0."""
    rng = random.Random(seed)
    while True:
        perm = list(range(group.order))
        rng.shuffle(perm)
        if perm[group.identity] != 0:
            break
    p = np.array(perm)
    inv = np.argsort(p)
    return make_group(p[group.table[np.ix_(inv, inv)].astype(np.int64)])


def hom_of_image_size(gamma, base, size, seed):
    """A hom gamma -> base whose image has ``size`` elements, drawn by ``seed``."""
    homs = [h for h in enumerate_homs(gamma, base) if len(set(h.image)) == size]
    return random.Random(seed).choice(homs)


def conjugating(gamma, base, size, seed):
    """gamma acting on base by conjugation through a hom with ``size`` image elements."""
    return conjugation_action(gamma, base, hom_of_image_size(gamma, base, size, seed))


def same_h1(got, want):
    assert [c.values for c in got.classes] == [c.values for c in want.classes]
    assert got.class_of == want.class_of
    assert got.distinguished == want.distinguished


S3, S5, S6 = symmetric_group(3), symmetric_group(5), symmetric_group(6)
S6R = relabel(S6, 1)

WIDE = [
    # uint16 tables
    ("Z2 inverting Z300", lambda: inversion_action(cyclic_group(2), cyclic_group(300))),
    ("Z4 inverting Z300R",
     lambda: inversion_action(cyclic_group(4), relabel(cyclic_group(300), 2))),
    ("Z2 conjugating S6R", lambda: conjugating(cyclic_group(2), S6R, 2, 3)),
    ("Z3 conjugating S6", lambda: conjugating(cyclic_group(3), S6, 3, 4)),
    # uint8 tables of order 17 to 255, where a * |B| passes 255
    ("Z2 inverting Z17", lambda: inversion_action(cyclic_group(2), cyclic_group(17))),
    ("Z6 inverting Z255R",
     lambda: inversion_action(cyclic_group(6), relabel(cyclic_group(255), 5))),
    ("S3 conjugating S5", lambda: conjugating(S3, S5, 6, 6)),
    ("Z4 conjugating D9R",
     lambda: conjugating(cyclic_group(4), relabel(dihedral_group(9), 7), 2, 8)),
    ("Q8 trivial on S4xZ2R", lambda: trivial_action(
        quaternion_group(), relabel(direct_product(symmetric_group(4), cyclic_group(2)), 9))),
]


@pytest.mark.parametrize("name,build", WIDE, ids=[w[0] for w in WIDE])
def test_h1_matches_full_pair_engine_on_wide_tables(name, build):
    parent = build()
    assert parent.base.order > 16
    same_h1(h1(parent), oracle.h1(parent))


@pytest.mark.parametrize(
    "gamma,base",
    [
        (cyclic_group(2), S6R),
        (cyclic_group(4), relabel(S5, 10)),
        (S3, relabel(dihedral_group(12), 11)),
        (quaternion_group(), relabel(direct_product(S3, cyclic_group(3)), 12)),
    ],
)
def test_homs_match_full_pair_engine_on_wide_tables(gamma, base):
    assert [h.image for h in enumerate_homs(gamma, base)] == [
        h.image for h in oracle.enumerate_homs(gamma, base)
    ]
    assert [h.image for h in homs_up_to_conjugacy(gamma, base)] == [
        h.image for h in oracle.homs_up_to_conjugacy(gamma, base)
    ]


@pytest.mark.parametrize("group", [relabel(cyclic_group(17), 13), relabel(dihedral_group(9), 14)])
def test_automorphisms_match_full_pair_engine_on_wide_tables(group):
    assert automorphism_group(group) == oracle.automorphism_group(group)


def test_coboundary_moves_take_uint8_values_past_255():
    # the inner product of a move is a uint8 column of S5; the outer one scales it by 120
    parent = conjugating(S3, S5, 6, 6)
    assert parent.base.table.dtype == np.uint8
    vals = crossed_homs(S3, S5, parent.action)
    reps, index = coboundary_classes(S3, S5, parent.action, vals.astype(np.uint8))
    want = oracle.h1(parent)
    assert vals[reps].tolist() == [list(c.values) for c in want.classes]
    assert {tuple(row): int(c) for row, c in zip(vals.tolist(), index)} == dict(want.class_of)


@pytest.mark.parametrize(
    "gamma,base",
    [
        (direct_product(direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
         relabel(symmetric_group(4), 16)),
        (dihedral_group(4), S6),
        (quaternion_group(), S5),
    ],
)
def test_the_chunk_byte_count_bounds_the_engine_peak(gamma, base, monkeypatch):
    # the candidate chunk's request covers its rows and one level's temporaries; the
    # rest of the peak is the surviving rows, gathered, joined and sorted
    asked, check = {}, groups.check_buffer

    def largest(n_items, item_bytes, what):
        asked[what] = max(asked.get(what, 0), n_items * item_bytes)
        check(n_items, item_bytes, what)

    monkeypatch.setattr(groups, "check_buffer", largest)
    crossed_homs(gamma, base)  # the plan, built once
    tracemalloc.start()
    try:
        rows = crossed_homs(gamma, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= asked["crossed-hom candidate chunk"] + 3 * rows.nbytes


class TestPlan:
    """The extension plan is built once per acting group and kept on that object."""

    def count_walks(self, monkeypatch):
        walks = []
        walk = groups._word_tree
        monkeypatch.setattr(groups, "_word_tree", lambda *args: walks.append(args) or walk(*args))
        return walks

    def test_a_second_call_does_not_walk_the_word_tree_again(self, monkeypatch):
        gamma, base = dihedral_group(5), symmetric_group(4)
        gamma.short_generators()  # its own walks come first
        walks = self.count_walks(monkeypatch)
        first = crossed_homs(gamma, base)
        assert len(walks) == 1
        assert np.array_equal(crossed_homs(gamma, base), first)
        h1(trivial_action(gamma, base))
        assert len(walks) == 1

    def test_a_relabelled_copy_gets_its_own_plan(self, monkeypatch):
        gamma, base = dihedral_group(5), symmetric_group(4)
        twin = relabel(gamma, 15)
        gamma.short_generators(), twin.short_generators()
        walks = self.count_walks(monkeypatch)
        crossed_homs(gamma, base)
        got = crossed_homs(twin, base)
        assert len(walks) == 2
        assert twin._plan is not gamma._plan
        assert [tuple(row) for row in got.tolist()] == [
            h.image for h in oracle.enumerate_homs(twin, base)
        ]
