"""Orbit and coset gathers against the per-element loops in ``engine_oracle``.

Each test compares every output field of a package routine built on
``groups.orbit_partition`` (or on one-gather abelian coordinates) with the
loop it replaced, over the verification corpora and over relabelled copies
whose identities are not index 0.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle as oracle
from test_h2 import RANDOM_GAMMAS, aut_group
from cocycle.cohomology import GammaGroup, action_from_gen_images, h1, trivial_action
from cocycle.etale import classify_etale
from cocycle.exactness import (
    _section,
    fixed_cosets,
    orbit_kernel_bijection,
    presentation_of_subgroup,
    quotient_gamma_group,
    six_term_check,
)
from cocycle.groups import (
    Subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    make_group,
    orbit_partition,
    quaternion_group,
    subgroup_as_group,
    symmetric_group,
)
from cocycle.suites import (
    _stable_subgroups,
    central_extension_corpus,
    kernel_bijection_corpus,
    shapiro_corpus,
    twisted_corpus,
)
from cocycle.twisted import enumerate_twisted_actions, map_group, phs_isomorphism, shapiro_induce
from cocycle.twisted import twisted_space


def relabel(group, seed):
    """An isomorphic copy with shuffled indices, the identity off index 0, and
    the array sending each old index to its new one."""
    rng = random.Random(seed)
    perm = list(range(group.order))
    while group.order > 1 and perm[group.identity] == 0:
        rng.shuffle(perm)
    p = np.array(perm)
    inv = np.argsort(p)
    return make_group(p[group.table[np.ix_(inv, inv)].astype(np.int64)]), p


def relabel_action(parent, seed):
    gamma, pg = relabel(parent.gamma, seed)
    base, pb = relabel(parent.base, seed + 1)
    action = np.empty((gamma.order, base.order), dtype=np.int64)
    action[pg[:, None], pb] = pb[parent.action]
    return GammaGroup(gamma, base, action)


KERNEL_CASES = kernel_bijection_corpus()
KERNEL_CASES += [
    (f"{n}, relabelled", relabel_action(p, i)) for i, (n, p) in enumerate(KERNEL_CASES)
]
TRIPLES = [(n, parent, sub) for n, parent in KERNEL_CASES for sub in _stable_subgroups(parent)]


def test_relabelled_corpus_moves_every_identity():
    relabelled = [p for name, p in KERNEL_CASES if name.endswith("relabelled")]
    assert len(relabelled) == 10
    assert all(p.gamma.identity != 0 and p.base.identity != 0 for p in relabelled)


def test_orbit_partition_reads_least_points_and_orbit_indices():
    # Z/6 acting on 0..5 through its subgroup {0, 3} by translation: orbits {x, x + 3}
    least, orbit_of = orbit_partition(cyclic_group(6).table[[0, 3]])
    assert least.tolist() == [0, 1, 2]
    assert orbit_of.tolist() == [0, 1, 2, 0, 1, 2]


def test_fixed_cosets_equal_the_loops():
    for name, parent, sub in TRIPLES:
        space = fixed_cosets(parent, sub)
        fields = (space.cosets, space.coset_of, space.gamma_action, space.fixed, space.orbits)
        assert fields == oracle.fixed_cosets(parent, sub), name


def test_quotients_and_sections_equal_the_loops():
    rng = random.Random(0)
    checked = 0
    for name, parent, sub in TRIPLES:
        if not sub.is_normal():
            continue
        quotient, proj = quotient_gamma_group(parent, sub)
        cosets, coset_of = oracle.left_cosets(parent.base, sub)
        reps = [c[0] for c in cosets]
        assert proj.hom.image == tuple(coset_of), name
        table = np.asarray(coset_of)[parent.base.table[np.ix_(reps, reps)]]
        assert np.array_equal(quotient.base.table, table)
        assert quotient.base.labels == tuple(f"[{parent.base.label(x)}]" for x in reps)
        cocycles = [v for members in h1(quotient).members for v in members]
        ng, nq = parent.gamma.order, quotient.base.order
        arbitrary = [tuple(rng.randrange(nq) for _ in range(ng)) for _ in range(20)]
        for values in cocycles + arbitrary:
            for greatest in (False, True):
                expected = oracle.section(parent, proj, values, greatest)
                assert _section(parent, proj, values, greatest) == expected, name
                checked += 1
    assert checked > 1000


def test_relabelled_sections_override_the_identity():
    # the identity coset's least and greatest elements are both off the identity
    name, parent, sub = next(
        (n, p, s)
        for n, p, s in TRIPLES
        if n.endswith("relabelled") and s.is_normal()
        and min(s.members) < p.base.identity < max(s.members)
    )
    _, proj = quotient_gamma_group(parent, sub)
    gamma, e = parent.gamma, parent.base.identity
    values = (proj.hom(e),) * gamma.order
    for greatest, pick in ((False, min), (True, max)):
        section = _section(parent, proj, values, greatest)
        assert section == oracle.section(parent, proj, values, greatest), name
        assert section[gamma.identity] == e
        others = [section[g] for g in gamma.elements() if g != gamma.identity]
        assert others == [pick(sub.members)] * (gamma.order - 1)


def test_module_bridges_equal_the_loops():
    extensions = [p for _, p, _ in central_extension_corpus()]
    parents = [p for _, p in KERNEL_CASES] + extensions
    parents += [relabel_action(p, 50 + i) for i, p in enumerate(extensions)]
    checked = 0
    for parent in parents:
        for sub in _stable_subgroups(parent):
            if not subgroup_as_group(sub)[0].is_abelian():
                continue
            bridge = presentation_of_subgroup(parent, sub)
            k = bridge.presentation.rank
            generators = [bridge.from_coords[tuple(int(i == j) for j in range(k))] for i in range(k)]
            factors, matrices, to_coords, from_coords = oracle.module_bridge(parent, sub, generators)
            assert bridge.presentation.factors == factors
            assert bridge.presentation.matrices == matrices
            assert list(bridge.to_coords.items()) == list(to_coords.items())
            assert list(bridge.from_coords.items()) == list(from_coords.items())
            checked += 1
    assert checked > 50


TWISTED_CASES = twisted_corpus() + [
    (f"{n}, relabelled", relabel_action(p, 20 + i)) for i, (n, p) in enumerate(twisted_corpus()[:8])
]


@pytest.mark.parametrize("name, parent", TWISTED_CASES, ids=[n for n, _ in TWISTED_CASES])
def test_phs_isomorphisms_equal_the_loop(name, parent):
    spaces = [twisted_space(t) for t in enumerate_twisted_actions(parent)]
    for p in spaces[:16]:
        for q in spaces[:16]:
            assert phs_isomorphism(p, q) == oracle.phs_isomorphism(p, q)


def _shapiro_cases():
    s3r, p = relabel(symmetric_group(3), 30)
    a3 = Subgroup.from_members(s3r, p[[0, 3, 4]])  # the identity and the 3-cycles
    a3_group, _ = subgroup_as_group(a3)
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    cycled = action_from_gen_images(a3_group, v4, {a3_group.generators()[0]: (0, 3, 1, 2)})
    return shapiro_corpus() + [
        ("relabelled (S3, A3), G=Z/3 trivial", s3r, a3, trivial_action(a3_group, cyclic_group(3))),
        ("relabelled (S3, A3), G=V4 cycled", s3r, a3, cycled),
    ]


def test_shapiro_inductions_equal_the_loops():
    for name, gamma, h_sub, action in _shapiro_cases():
        induced = shapiro_induce(gamma, h_sub, action)
        maps, act = oracle.shapiro_maps(gamma, h_sub, action)
        assert induced.maps == maps, name
        assert induced.gamma_group.action.tolist() == act, name
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    s3r = relabel(symmetric_group(3), 31)[0]
    for gamma in (cyclic_group(2), cyclic_group(4), v4, symmetric_group(3), s3r):
        for g in (cyclic_group(2), cyclic_group(3)):
            induced = map_group(gamma, g)
            h_sub = Subgroup(gamma, (gamma.identity,))
            trivial = GammaGroup(subgroup_as_group(h_sub)[0], g, np.arange(g.order)[None, :])
            maps, act = oracle.shapiro_maps(gamma, h_sub, trivial)
            assert induced.maps == maps
            assert induced.gamma_group.action.tolist() == act


ETALE_GAMMAS = [cyclic_group(n) for n in range(2, 7)] + [
    symmetric_group(3),
    dihedral_group(4),
    relabel(dihedral_group(4), 40)[0],
]


ETALE_IDS = ["Z2", "Z3", "Z4", "Z5", "Z6", "S3", "D4", "D4 relabelled"]


@pytest.mark.parametrize("gamma", ETALE_GAMMAS, ids=ETALE_IDS)
def test_etale_orbits_and_kernels_equal_the_loops(gamma):
    for m in range(1, 5):
        for cls in classify_etale(gamma, m):
            assert cls.orbits == oracle.etale_orbits(cls.psi.target, cls.image, m)
            kernel = tuple(a for a in gamma.elements() if cls.psi(a) == cls.psi.target.identity)
            assert cls.psi.kernel().members == kernel


RANDOM_BASES = {f"Z/{m}": cyclic_group(m) for m in (2, 3, 4, 5, 6, 8)}
RANDOM_BASES.update(
    V4=direct_product(cyclic_group(2), cyclic_group(2)),
    S3=symmetric_group(3),
    D4=dihedral_group(4),
    Q8=quaternion_group(),
)
RANDOM_AUTS = {name: aut_group(base) for name, base in RANDOM_BASES.items()}


@st.composite
def stable_subgroups(draw):
    """A group of order <= 8 acting through a hom into Aut(base), and a stable subgroup."""
    gamma = draw(st.sampled_from(RANDOM_GAMMAS))
    name = draw(st.sampled_from(sorted(RANDOM_BASES)))
    aut, auts = RANDOM_AUTS[name]
    hom = draw(st.sampled_from(enumerate_homs(gamma, aut)))
    parent = GammaGroup(gamma, RANDOM_BASES[name], [auts[hom(g)] for g in gamma.elements()])
    return parent, draw(st.sampled_from(_stable_subgroups(parent)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(stable_subgroups())
def test_six_term_exactness_on_random_stable_subgroups(case):
    parent, sub = case
    space = fixed_cosets(parent, sub)
    fields = (space.cosets, space.coset_of, space.gamma_action, space.fixed, space.orbits)
    assert fields == oracle.fixed_cosets(parent, sub)
    report = orbit_kernel_bijection(parent, sub)
    assert report.n_orbits == len(report.kernel_classes)
    if sub.is_normal():
        assert six_term_check(parent, sub).exact
