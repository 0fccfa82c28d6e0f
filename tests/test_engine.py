"""The crossed-hom engine against the full-pair reference in ``engine_oracle``."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import engine_oracle as oracle
from cocycle import groups
from cocycle.cohomology import (
    GammaGroup,
    action_from_gen_images,
    conjugation_action,
    h1,
    h1_trivial_action,
    inversion_action,
    trivial_action,
)
from cocycle.groups import (
    GroupHom,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    homs_up_to_conjugacy,
    identity_hom,
    make_group,
    quaternion_group,
    symmetric_group,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def relabel(group, seed):
    """An isomorphic copy with permuted element indices; the identity moves off 0."""
    rng = random.Random(seed)
    while True:
        perm = list(range(group.order))
        rng.shuffle(perm)
        if group.order == 1 or perm[group.identity] != 0:
            break
    p = np.array(perm)
    inv = np.argsort(p)
    return make_group(p[group.table[np.ix_(inv, inv)].astype(np.int64)])


def e(r):
    group = cyclic_group(2)
    for _ in range(r - 1):
        group = direct_product(group, cyclic_group(2))
    return group


S3, S4, D4, Q8 = symmetric_group(3), symmetric_group(4), dihedral_group(4), quaternion_group()
S3R, D4R, Q8R, S4R = relabel(S3, 1), relabel(D4, 2), relabel(Q8, 3), relabel(S4, 4)

GAMMA_BASE = [
    (S3, S3), (S3R, D4R), (S4, S3), (D4, cyclic_group(4)), (D4R, Q8R), (Q8, S3R),
    (Q8R, D4), (S4R, relabel(cyclic_group(6), 5)), (e(3), e(2)), (cyclic_group(6), S3R),
    (cyclic_group(1), S3), (S3, cyclic_group(1)),
]


def conj_action(gamma, base):
    """Conjugation through the hom of largest image (the first such)."""
    homs = enumerate_homs(gamma, base)
    return conjugation_action(gamma, base, max(homs, key=lambda h: len(set(h.image))))


ACTIONS = [
    ("trivial S4 on S3", lambda: trivial_action(S4, S3)),
    ("trivial Q8R on D4R", lambda: trivial_action(Q8R, D4R)),
    ("inner S3", lambda: conjugation_action(S3, S3, identity_hom(S3))),
    ("inner D4R", lambda: conjugation_action(D4R, D4R, identity_hom(D4R))),
    ("inner Q8", lambda: conjugation_action(Q8, Q8, identity_hom(Q8))),
    ("conj S4 on S3R", lambda: conj_action(S4, S3R)),
    ("conj Q8R on D4", lambda: conj_action(Q8R, D4)),
    ("conj S3R on S4", lambda: conj_action(S3R, S4)),
    ("sign S3 on Z5", lambda: inversion_action(S3, cyclic_group(5))),
    ("sign S4 on Z8R", lambda: inversion_action(S4, relabel(cyclic_group(8), 6))),
    ("inversion D4 on Z4xZ2",
     lambda: inversion_action(D4, direct_product(cyclic_group(4), cyclic_group(2)))),
    ("inversion D4R on Z6", lambda: inversion_action(D4R, cyclic_group(6), D4R.generators()[:1])),
    ("inversion Q8 on Z5", lambda: inversion_action(Q8, cyclic_group(5), Q8.generators()[1:])),
    ("inversion Q8R on Z3R",
     lambda: inversion_action(Q8R, relabel(cyclic_group(3), 7), Q8R.generators()[1:2])),
]


def same_h1(got, want):
    assert [c.values for c in got.classes] == [c.values for c in want.classes]
    assert got.class_of == want.class_of
    assert got.distinguished == want.distinguished


@pytest.mark.parametrize("name,build", ACTIONS, ids=[a[0] for a in ACTIONS])
def test_h1_matches_full_pair_engine(name, build):
    parent = build()
    got = h1(parent)
    same_h1(got, oracle.h1(parent))
    for i, members in enumerate(got.members):
        assert members == tuple(sorted(k for k, c in got.class_of.items() if c == i))
        assert members[0] == got.classes[i].values


def _norm_is_trivial(parent):
    """Whether x * x^s * ... * x^(s^(n-1)) = e for every x, where gamma is
    cyclic_group(n) and s = 1: then the cyclic relation keeps every value."""
    gamma, base = parent.gamma, parent.base
    for x in base.elements():
        y = base.identity
        for j in gamma.elements():  # element j of cyclic_group(n) is s^j
            y = base.mul(y, parent.act(j, x))
        if y != base.identity:
            return False
    return True


def _perm_order(p):
    q, k = p, 1
    while q != tuple(range(len(p))):
        q, k = tuple(p[i] for i in q), k + 1
    return k


@st.composite
def drawn_actions(draw):
    kind = draw(st.sampled_from(["inversion", "trivial base", "conjugation", "strict pools"]))
    if kind == "inversion":  # a cyclic base spanned by one element: long cycle orbits
        gammas = [cyclic_group(2), cyclic_group(4), cyclic_group(6), e(2), S3, D4R]
        gamma = draw(st.sampled_from(gammas))
        base = cyclic_group(draw(st.integers(2, 48)))
        inverting = draw(st.lists(st.sampled_from(gamma.generators()), min_size=1, unique=True))
        try:
            return inversion_action(gamma, base, inverting)
        except ValueError:  # the signs do not extend to a hom gamma -> {1, -1}
            assume(False)
    if kind == "trivial base":
        gamma = draw(st.sampled_from([cyclic_group(1), cyclic_group(4), S3R, Q8]))
        return trivial_action(gamma, cyclic_group(1))
    if kind == "conjugation":  # nonabelian gamma through a drawn hom
        gamma = draw(st.sampled_from([S3, S3R, D4, D4R, Q8, Q8R]))
        base = draw(st.sampled_from([S3, S3R, D4, D4R, Q8R, S4R]))
        return conjugation_action(gamma, base, draw(st.sampled_from(enumerate_homs(gamma, base))))
    # Z/n acting by an automorphism of order dividing n, with a strict pool
    n = draw(st.sampled_from([2, 3, 4, 6]))
    z2z4 = direct_product(cyclic_group(2), cyclic_group(4))
    bases = [cyclic_group(8), relabel(cyclic_group(9), 9), z2z4, Q8R, D4R, S3R, relabel(e(3), 10)]
    base = draw(st.sampled_from(bases))
    autos = [p for p in automorphism_group(base) if n % _perm_order(p) == 0 and _perm_order(p) > 1]
    assume(autos)
    gamma = cyclic_group(n)
    parent = action_from_gen_images(gamma, base, {1: draw(st.sampled_from(autos))})
    assume(not _norm_is_trivial(parent))
    return parent


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(drawn_actions())
def test_h1_matches_full_pair_engine_on_drawn_actions(parent):
    same_h1(h1(parent), oracle.h1(parent))


@pytest.mark.parametrize("base", [S3R, D4R, cyclic_group(8), Q8R], ids=["S3R", "D4R", "Z8", "Q8R"])
def test_generator_pair_multiplicativity_matches_full_validation(base):
    # Z/2 acting by an involution fixing e: sometimes an automorphism, mostly not
    z2, rng = cyclic_group(2), random.Random(base.order)
    autos = [p for p in automorphism_group(base) if _perm_order(p) <= 2]
    outcomes = set()
    for _ in range(60):
        if rng.random() < 0.3:
            row = list(rng.choice(autos))
        else:
            row, rest = list(range(base.order)), [a for a in base.elements() if a != base.identity]
            rng.shuffle(rest)
            for a, b in zip(rest[: rng.randrange(len(rest) + 1) // 2 * 2 : 2], rest[1::2]):
                row[a], row[b] = b, a
        action = [list(range(base.order)), row]
        try:
            GammaGroup(z2, base, action)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == oracle.action_is_valid(z2, base, action)
        outcomes.add(accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("gamma,base", GAMMA_BASE)
def test_homs_and_trivial_h1_match_full_pair_engine(gamma, base):
    assert [h.image for h in enumerate_homs(gamma, base)] == [
        h.image for h in oracle.enumerate_homs(gamma, base)
    ]
    assert [h.image for h in homs_up_to_conjugacy(gamma, base)] == [
        h.image for h in oracle.homs_up_to_conjugacy(gamma, base)
    ]
    same_h1(h1_trivial_action(gamma, base), oracle.h1_trivial_action(gamma, base))


@pytest.mark.parametrize(
    "group,count",
    [(Q8, 24), (S4, 24), (e(3), 168), (Q8R, 24), (S3R, 6), (D4R, 8), (cyclic_group(12), 4)],
)
def test_automorphisms_match_full_pair_engine(group, count):
    autos = automorphism_group(group)
    assert len(autos) == count
    assert autos == oracle.automorphism_group(group)


@pytest.mark.parametrize(
    "g,h",
    [
        (S3, S3R), (D4, D4R), (Q8R, Q8), (S4, S4R), (D4, Q8), (Q8, D4R),
        (cyclic_group(4), e(2)), (e(3), relabel(e(3), 8)), (cyclic_group(6), S3),
    ],
)
def test_find_isomorphism_matches_full_pair_engine(g, h):
    # the engine's bijective homs, least on generators(), against the oracle's first one
    isos = [f for f in enumerate_homs(g, h) if f.is_injective() and f.is_surjective()]
    want = oracle.find_isomorphism(g, h)
    assert (not isos) == (want is None)
    if want is not None:
        got = min(isos, key=lambda f: [f(x) for x in g.generators()])
        assert got.image == want.image
        GroupHom.make(g, h, got.image)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_table_matches_pairwise_composition(m):
    assert np.array_equal(symmetric_group(m).table, oracle.symmetric_table(m))


@pytest.mark.parametrize("gamma,base", [(D4, cyclic_group(5)), (Q8R, cyclic_group(5)), (S3, S3R)])
def test_generator_row_validation_matches_full_validation(gamma, base):
    # random automorphisms on generators() extended along the word tree,
    # sometimes with one row overwritten
    autos = automorphism_group(base)
    rng = random.Random(gamma.order * 97 + base.order)
    gens = gamma.generators()
    outcomes = set()
    for _ in range(40):
        action = np.empty((gamma.order, base.order), dtype=np.int64)
        action[gamma.identity] = np.arange(base.order)
        for g in gens:
            action[g] = rng.choice(autos)
        for new, prev, gen in gamma.word_tree():
            action[new] = action[prev][action[gen]]
        if rng.random() < 0.3:  # a non-generator row replaced by another automorphism
            action[rng.randrange(gamma.order)] = rng.choice(autos)
        try:
            GammaGroup(gamma, base, action)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == oracle.action_is_valid(gamma, base, action)
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_size_limit_counts_short_generators(monkeypatch):
    # greedy generators() of S4 has 3 elements, the engine's set 2: 5^2 fits
    assert len(S4.generators()) == 3 and len(S4.short_generators()) == 2
    monkeypatch.setattr(groups, "DEFAULT_MAX_CANDIDATES", 25)
    assert len(enumerate_homs(S4, cyclic_group(5))) == 1


CONVENTION_BUG = """
import json, sys
import numpy as np
import cocycle.cohomology as H
from cocycle import cli
from cocycle.errors import MatchFailure
from cocycle.groups import identity_hom, symmetric_group

coboundary_classes = H.coboundary_classes
# transform by a^(g^-1) in place of a^g: the right-action convention
H.coboundary_classes = lambda gamma, base, action, vals: coboundary_classes(
    gamma, base, np.asarray(action)[[gamma.inv(g) for g in gamma.elements()]], vals
)
s3 = symmetric_group(3)
parent = H.conjugation_action(s3, s3, identity_hom(s3))
try:
    H.h1(parent)
    raised = None
except MatchFailure:
    raised = "MatchFailure"
with open(sys.argv[1], "w") as fh:
    json.dump({"gamma": {"family": "symmetric", "n": 3}, "base": {"family": "symmetric", "n": 3},
               "action": parent.action.tolist()}, fh)
code = cli.main(["h1", "--input", sys.argv[1]])
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised, "exit": code}))
"""


def test_convention_bug_fails_under_python_O(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CONVENTION_BUG, str(tmp_path / "action.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"optimize": 1, "raised": "MatchFailure", "exit": 3}
    assert "verification failure" in proc.stderr
