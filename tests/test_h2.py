"""H2 from relator tails on the Cayley graph, against the bar-complex and dense routes.

``tests/h2_oracle.py`` keeps the bar-complex route and the dense Cayley-cycle
route the package used to run; these tests compare invariant factors, classes
and coboundary decisions with them and with the brute-force order, also on
random modules, check classical values
(some only this route reaches under the default bound), check
``H2Group.class_of`` on generators, coboundaries, bar-route generators and
non-cocycles, and run the connecting map on GL(2,3) over S4 and SL(2,3)
over A4.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocycle.exactness as X
import cocycle.groups as groups
import cocycle.snf as snf
from cocycle import (
    AbelianPresentation,
    GammaGroup,
    SizeLimit,
    Subgroup,
    connecting_delta,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    h1,
    h2_central,
    make_group,
    make_tower,
    quaternion_group,
    quotient_gamma_group,
    quotient_group,
    six_term_check,
    symmetric_group,
    trivial_action,
    trivial_module,
)
from cocycle.exactness import h2_brute_force_order, presentation_of_subgroup
from cocycle.fields import batch_key, batch_mul, general_linear
from cocycle.groups import automorphism_group, perm_sign, subgroup_as_group, whole_subgroup
from cocycle.suites import central_extension_corpus, h2_corpus

import h2_oracle


def v4():
    return direct_product(cyclic_group(2), cyclic_group(2))


def unit_module(n, m, u):
    """Z/n acting on Z/m through multiplication by a unit u of order dividing n."""
    gamma = cyclic_group(n)
    return gamma, AbelianPresentation(gamma, (m,), tuple(((pow(u, g, m),),) for g in range(n)))


def cochain_value(gamma, pres, vec, g, h):
    """c(g, h) read from a normalized flat cochain; zero when g or h is the identity."""
    if gamma.identity in (g, h):
        return (0,) * pres.rank
    g1 = [x for x in range(gamma.order) if x != gamma.identity]
    start = (g1.index(g) * len(g1) + g1.index(h)) * pres.rank
    return tuple(vec[start : start + pres.rank])


def defect(gamma, pres, vec, g, h, k):
    """g.c(h,k) - c(gh,k) + c(g,hk) - c(g,h), through pres.apply."""
    terms = (
        pres.apply(g, cochain_value(gamma, pres, vec, h, k)),
        cochain_value(gamma, pres, vec, gamma.mul(g, h), k),
        cochain_value(gamma, pres, vec, g, gamma.mul(h, k)),
        cochain_value(gamma, pres, vec, g, h),
    )
    return tuple((a - b + c - d) % n for a, b, c, d, n in zip(*terms, pres.factors))


def is_cocycle(gamma, pres, vec):
    """The defect vanishes at every triple."""
    triples = itertools.product(range(gamma.order), repeat=3)
    return not any(any(defect(gamma, pres, vec, *t)) for t in triples)


CASES = [(name, gamma, pres) for name, gamma, pres in h2_corpus()]
CASES += [
    (f"H2(Z/{n}, Z/{m})", cyclic_group(n), trivial_module(cyclic_group(n), (m,)))
    for n in range(1, 7)
    for m in (2, 3, 4, 6)
]
CASES += [
    (f"H2({name}, Z/2 x Z/4)", gamma, trivial_module(gamma, (2, 4)))
    for name, gamma in (("Z/2", cyclic_group(2)), ("Z/4", cyclic_group(4)), ("V4", v4()))
]
CASES += [
    (f"H2(Z/{n}, Z/{m} by {u})", *unit_module(n, m, u))
    for n, m, u in ((2, 4, 3), (4, 5, 2), (4, 8, 3), (2, 6, 5))
]


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_differentials_match_pair_by_pair_construction(name, gamma, pres):
    d1, d2_rows, moduli1, moduli2, moduli3, _ = h2_oracle.normalized_d_sparse(gamma, pres)
    d2 = h2_oracle._normalized_differential(gamma, pres, 2)
    assert h2_oracle._normalized_differential(gamma, pres, 1) == d1
    assert [sorted((j, c) for j, c in enumerate(row) if c) for row in d2] == [
        [(j, c) for j, c in row if c] for row in d2_rows
    ]
    assert [h2_oracle._moduli(gamma, pres, n) for n in (1, 2, 3)] == [moduli1, moduli2, moduli3]


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_invariant_factors_match_oracle(name, gamma, pres):
    engine = h2_central(gamma, pres)
    assert engine.invariant_factors == h2_oracle.h2_central(gamma, pres).invariant_factors


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_generators_are_cocycles_with_unit_classes(name, gamma, pres):
    engine = h2_central(gamma, pres)
    r = len(engine.invariant_factors)
    for i, gen in enumerate(engine.generators):
        assert is_cocycle(gamma, pres, gen)
        assert engine.class_of(gen) == tuple(int(i == j) for j in range(r))


@pytest.mark.parametrize(
    "gamma,factors",
    [
        (cyclic_group(8), (2,)),  # Z/2 (cyclic: Z/gcd)
        (dihedral_group(4), (2, 2, 2)),  # Schur multiplier Z/2, H1 = (Z/2)^2
        (quaternion_group(), (2, 2)),  # Schur multiplier 0, H1 = (Z/2)^2
        (symmetric_group(3), (2,)),  # Schur multiplier 0, H1 = Z/2
    ],
    ids=["Z/8", "D4", "Q8", "S3"],
)
def test_classical_values_under_default_bound(gamma, factors):
    # trivial Z/2: H2 = Hom(H2(G), Z/2) + Ext(H1(G), Z/2)
    assert h2_central(gamma, trivial_module(gamma, (2,))).invariant_factors == factors


@pytest.mark.parametrize(
    "gamma", [cyclic_group(8), dihedral_group(4), quaternion_group(), cyclic_group(9)],
    ids=["Z/8", "D4", "Q8", "Z/9"],
)
def test_baseline_rows_match_the_bar_oracle(gamma):
    pres = trivial_module(gamma, (2,))
    engine = h2_central(gamma, pres)
    assert engine.invariant_factors == h2_oracle.h2_central(gamma, pres).invariant_factors


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_coboundaries_have_zero_class(name, gamma, pres):
    engine = h2_central(gamma, pres)
    d1 = h2_oracle._normalized_differential(gamma, pres, 1)
    moduli1, moduli2 = h2_oracle._moduli(gamma, pres, 1), h2_oracle._moduli(gamma, pres, 2)
    rng = random.Random(sum(map(ord, name)))
    zero = (0,) * len(engine.invariant_factors)
    for _ in range(5):
        f = [rng.randrange(n) for n in moduli1]
        boundary = [sum(a * x for a, x in zip(row, f)) % n for row, n in zip(d1, moduli2)]
        assert h2_oracle.is_coboundary(gamma, pres, boundary)
        assert engine.class_of(boundary) == zero
        for i, gen in enumerate(engine.generators):
            shifted = [(a + b) % n for a, b, n in zip(gen, boundary, moduli2)]
            assert engine.class_of(shifted) == engine.class_of(gen)


def test_class_of_raises_on_non_cocycles():
    gamma = cyclic_group(3)
    pres = trivial_module(gamma, (3,))
    engine = h2_central(gamma, pres)
    dim = len(engine.generators[0])
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    broken = [u for u in units if not is_cocycle(gamma, pres, u)]
    assert broken
    for vec in broken:
        assert not h2_oracle.is_coboundary(gamma, pres, vec)
        with pytest.raises(ValueError, match="not a 2-cocycle"):
            engine.class_of(vec)
    with pytest.raises(ValueError):
        engine.class_of([0] * (dim + 1))


@pytest.mark.parametrize("gamma", [symmetric_group(3), dihedral_group(4)], ids=["S3", "D4"])
def test_class_of_checks_every_short_generator(gamma):
    # cochains whose defect vanishes at every (g, h, x) for one generator x, but
    # not at every triple: the check must not stop at any single generator
    pres = trivial_module(gamma, (2,))
    engine = h2_central(gamma, pres)
    dim = (gamma.order - 1) ** 2
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    pairs = list(itertools.product(range(gamma.order), repeat=2))
    for x in gamma.short_generators():
        matrix = [[defect(gamma, pres, u, g, h, x)[0] for u in units] for g, h in pairs]
        diag, v, _ = snf.smith_normal_form(matrix, 2)
        rank = int(np.count_nonzero(diag % 2))
        kernel = v[:, rank:].T.tolist()
        broken = [vec for vec in kernel if not is_cocycle(gamma, pres, vec)]
        assert broken
        for vec in broken:
            with pytest.raises(ValueError, match="not a 2-cocycle"):
                engine.class_of(vec)


def test_class_is_additive():
    gamma = cyclic_group(4)
    pres = trivial_module(gamma, (2, 4))
    engine = h2_central(gamma, pres)
    moduli2 = h2_oracle._moduli(gamma, pres, 2)
    a, b = engine.generators
    total = [(3 * x + 2 * y) % n for x, y, n in zip(a, b, moduli2)]
    assert engine.class_of(total) == (3 % engine.invariant_factors[0], 2)


@pytest.mark.parametrize(
    "name,parent,central",
    central_extension_corpus(),
    ids=[c[0] for c in central_extension_corpus()],
)
def test_delta_triviality_matches_oracle(name, parent, central):
    quotient, _ = quotient_gamma_group(parent, central)
    for cls in h1(quotient).classes:
        res = connecting_delta(parent, central, cls)
        pres = res.bridge.presentation
        assert res.trivial == h2_oracle.is_coboundary(parent.gamma, pres, res.cochain)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_two_smith_forms_per_h2(monkeypatch):
    gamma = dihedral_group(4)
    direct = count_calls(monkeypatch, X, "smith_normal_form")
    cokernel = count_calls(monkeypatch, snf, "smith_normal_form")
    engine = h2_central(gamma, trivial_module(gamma, (2,)))
    # one form of the relator scans, t k = 3 columns for t = 3 relators: tk zero rows and the
    # nonzero scans, of which trivial Z/2 has none
    assert len(engine.cycles) == 3
    assert [(len(m), len(m[0])) for m, _ in direct] == [(3, 3)]
    # the transposed relations on the l = 3 live coordinates, (|X| k + l) x l, read by
    # cokernel_invariant_factors
    assert [(len(m), len(m[0])) for m, _ in cokernel] == [(5, 3)]
    # every Smith form is over Z/N for the module exponent N
    assert [modulus for _, modulus in direct + cokernel] == [2, 2]
    direct.clear()
    cokernel.clear()
    engine = h2_central(gamma, trivial_module(gamma, (2, 4)))
    # Z/2 x Z/4: 6 columns, and 2 nonzero scans beside the 6 held zero rows
    assert [(len(m), len(m[0])) for m, _ in direct] == [(8, 6)]
    assert len(engine.cycles) * 2 == 6
    assert [modulus for _, modulus in direct + cokernel] == [4, 4]


def test_delta_uses_one_h2_and_no_smith_form_of_its_own(monkeypatch):
    name, parent, central = central_extension_corpus()[1]
    quotient, _ = quotient_gamma_group(parent, central)
    cls = h1(quotient).classes[-1]
    h2_calls = count_calls(monkeypatch, X, "h2_central")
    direct = count_calls(monkeypatch, X, "smith_normal_form")
    connecting_delta(parent, central, cls)
    assert len(h2_calls) == 1
    assert len(direct) == 1  # the relator scans inside h2_central


def test_lattice_products_past_int64_stay_exact():
    # Z/64 on (Z/2p)^2 through a conjugate of diag(u, 1), u of order 64: both Smith
    # forms fit int64, but V^-1 times a relation column does not (an int64 product
    # wraps and reports a relation outside the gamma-maps)
    p, u = 536_871_233, 175_094_775  # p prime, 64 | p - 1; u odd, of order 64 mod p
    n = 2 * p
    conj = np.array([[1_063_938_749, 965_274_705], [1_014_138_928, 815_217_483]], dtype=object)
    det = int(conj[0, 0] * conj[1, 1] - conj[0, 1] * conj[1, 0])
    inv = np.array([[conj[1, 1], -conj[0, 1]], [-conj[1, 0], conj[0, 0]]]) * pow(det, -1, n) % n
    a = conj @ np.diag([u, 1]).astype(object) @ inv % n
    mats, cur = [], np.eye(2, dtype=np.int64).astype(object)
    for _ in range(64):
        mats.append(tuple(map(tuple, cur.tolist())))
        cur = cur @ a % n
    gamma = cyclic_group(64)
    engine = h2_central(gamma, AbelianPresentation(gamma, (n, n), tuple(mats)))
    assert engine.invariant_factors == (2, 2)
    assert [engine.class_of(gen) for gen in engine.generators] == [(1, 0), (0, 1)]


def test_exponent_scaling_on_mixed_factors():
    # rows of modulus 2 and 4 share the exponent 4; H2(Z/2, Z/2 x Z/4) = (Z/2)^2
    gamma = cyclic_group(2)
    engine = h2_central(gamma, trivial_module(gamma, (2, 4)))
    assert engine.invariant_factors == (2, 2)
    assert engine.order == math.gcd(2, 2) * math.gcd(2, 4)


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_bar_generators_map_onto_the_classes(name, gamma, pres):
    engine, bar = h2_central(gamma, pres), h2_oracle.h2_central(gamma, pres)
    zero = (0,) * len(engine.invariant_factors)
    images = [engine.class_of(gen) for gen in bar.generators]
    span, frontier = {zero}, {zero}
    while frontier:
        frontier = {
            tuple((a + b) % f for a, b, f in zip(x, y, engine.invariant_factors))
            for x in frontier
            for y in images
        } - span
        span |= frontier
    assert len(span) == engine.order
    moduli2 = h2_oracle._moduli(gamma, pres, 2)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(3):
        coeffs = [rng.randrange(f) for f in bar.invariant_factors]
        vec = [
            sum(c * gen[i] for c, gen in zip(coeffs, bar.generators)) % n
            for i, n in enumerate(moduli2)
        ]
        assert (engine.class_of(vec) == zero) == h2_oracle.is_coboundary(gamma, pres, vec)


def alternating_group(n):
    sn = symmetric_group(n)
    even = [g for g in sn.elements() if perm_sign(sn.perms[g]) == 1]
    return subgroup_as_group(Subgroup.from_members(sn, even))[0]


def z2_power(n):
    group = cyclic_group(2)
    for _ in range(n - 1):
        group = direct_product(group, cyclic_group(2))
    return group


@pytest.mark.parametrize(
    "make,m,factors",
    [
        (lambda: cyclic_group(10), 2, (2,)),
        (lambda: cyclic_group(12), 4, (4,)),
        (lambda: alternating_group(4), 2, (2,)),  # M(A4) = Z/2, A4^ab = Z/3
        (lambda: alternating_group(4), 6, (6,)),
        (lambda: symmetric_group(4), 2, (2, 2)),  # M = Z/2, ab = Z/2
        (lambda: dihedral_group(6), 2, (2, 2, 2)),  # M = Z/2, ab = (Z/2)^2
        (lambda: z2_power(4), 2, (2,) * 10),  # M = (Z/2)^6, ab = (Z/2)^4
        (lambda: direct_product(quaternion_group(), cyclic_group(2)), 2, (2,) * 5),
        (lambda: symmetric_group(5), 2, (2, 2)),  # M = Z/2, ab = Z/2
    ],
    ids=["Z/10", "Z/12 on Z/4", "A4", "A4 on Z/6", "S4", "D6", "(Z/2)^4", "Q8xZ/2", "S5"],
)
def test_values_past_the_bar_bound(make, m, factors):
    # trivial Z/m: H2 = Hom(M(G), Z/m) + Ext(G^ab, Z/m), M the Schur multiplier
    gamma = make()
    pres = trivial_module(gamma, (m,))
    with pytest.raises(SizeLimit):
        h2_oracle.h2_central(gamma, pres)
    engine = h2_central(gamma, pres)
    assert engine.invariant_factors == factors
    for i, gen in enumerate(engine.generators):
        assert engine.class_of(gen) == tuple(int(i == j) for j in range(len(factors)))


def test_long_cycle_stays_in_quadratic_memory():
    # one generator, so the factored matrix is 1 x 1 and its byte count bounds nothing;
    # the cocycle checks and the pull-back hold |gamma|^2 |X| k values, where one
    # |gamma|^3 int64 array alone would take 16 MiB
    gamma = cyclic_group(128)
    tracemalloc.start()
    try:
        engine = h2_central(gamma, trivial_module(gamma, (2,)))
        assert engine.class_of(engine.generators[0]) == (1,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.invariant_factors == (2,)
    assert peak < 8 << 20


def test_cayley_cycles_are_sized_before_they_are_allocated(monkeypatch):
    # Z/2048 has one relator, x^2048, a Cayley cycle whose walks from every start take
    # 2048 x 2048 int64, 33.6 MB; the count refuses them before the first is built, and
    # the group's table is not compared with itself in a 4 MB temporary before that
    gamma = cyclic_group(2048)
    pres = trivial_module(gamma, (2,))
    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "16")
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="H2 relator tails needs 33570816 bytes"):
            h2_central(gamma, pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "make,m", [(lambda: symmetric_group(5), 2), (lambda: alternating_group(6), 6)],
    ids=["S5 on Z/2", "A6 on Z/6"],
)
def test_the_h2_byte_count_bounds_the_peak(budget_requests, make, m):
    # the walks and tails are held to the end; beside them come first the scans and their
    # Smith form, then the pull-back with the cocycle check inside it. The counts may
    # overshoot the traced peak, but not twice over
    gamma = make()
    pres = trivial_module(gamma, (m,))
    asked, chunks = budget_requests(X), budget_requests(groups)
    tracemalloc.start()
    try:
        h2_central(gamma, pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pull_back = asked["H2 pull-back"] + chunks["2-cocycle identity"]
    bound = asked["H2 relator tails"] + max(asked["H2 relator scans"], pull_back)
    assert peak <= bound < 2 * peak


def test_s6_passes_the_byte_check_at_the_default_budget(budget_requests, monkeypatch):
    # 28 relators; the largest count is the pull-back of the second generator, 20.7 MB
    monkeypatch.delenv("COCYCLE_MAX_MEM_MB", raising=False)
    asked = budget_requests(X)
    gamma = symmetric_group(6)
    engine = h2_central(gamma, trivial_module(gamma, (2,)))
    assert engine.invariant_factors == (2, 2)
    assert len(engine.cycles) == 28
    assert max(asked.values()) == asked["H2 pull-back"] == 20_736_000


def test_s6_is_refused_before_its_pull_back_under_12_mib(monkeypatch):
    # the walks, tails and scans fit; the first generator's cochain is never built
    def check(gamma, pres, c):
        raise AssertionError("a generator was pulled back before the byte check")

    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "12")
    monkeypatch.setattr(X, "_is_cocycle", check)
    gamma = symmetric_group(6)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="H2 pull-back needs 16588800 bytes"):
            h2_central(gamma, trivial_module(gamma, (2,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


@pytest.mark.parametrize("mb,refused", [(4, True), (16, False)], ids=["4 MiB", "16 MiB"])
def test_the_cocycle_check_stays_in_its_budget(monkeypatch, mb, refused):
    # S6 on Z/2 takes rows g 182 at a time: D(g, h, x) and three terms of
    # 182 x 720 x 2 values each, counted at 8.4 MB
    gamma = symmetric_group(6)
    pres = trivial_module(gamma, (2,))
    c = np.zeros((gamma.order, gamma.order, 1), dtype=np.int64)
    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", str(mb))
    tracemalloc.start()
    try:
        if refused:
            with pytest.raises(SizeLimit, match="2-cocycle identity needs 8386560 bytes"):
                X._is_cocycle(gamma, pres, c)
        else:
            assert X._is_cocycle(gamma, pres, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20 if refused else mb << 20)


def test_a_cochain_is_sized_before_it_is_unpacked(monkeypatch):
    # S6's full 720 x 720 cochain and the copy of the flat vector take 8.3 MB
    gamma = symmetric_group(6)
    engine = h2_central(gamma, trivial_module(gamma, (2,)))
    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "4")
    with pytest.raises(SizeLimit, match="2-cochain needs 8294400 bytes"):
        engine.class_of(engine.generators[0])
    monkeypatch.delenv("COCYCLE_MAX_MEM_MB")
    assert engine.class_of(engine.generators[0]) == (1, 0)


def center_extension(special):
    """GL(2,3) (SL(2,3) when special) with its quotient by the center {+-I}
    acting trivially on it, and that center."""
    tower = make_tower(3, 1, 1)
    mats = np.concatenate([chunk for chunk, _, _ in general_linear(tower, 2, special)], axis=2)
    keys = batch_key(tower, mats)
    products = batch_mul(tower, mats[:, :, :, None], mats[:, :, None, :])
    base = make_group(np.searchsorted(keys, batch_key(tower, products)))
    elements = base.elements()
    center = [x for x in elements if all(base.mul(x, y) == base.mul(y, x) for y in elements)]
    center = Subgroup.from_members(base, center)
    return trivial_action(quotient_group(base, center)[0], base), center


@pytest.mark.parametrize(
    "special,n_iso", [(False, 1), (True, 2)], ids=["GL(2,3) over S4", "SL(2,3) over A4"]
)
def test_delta_on_nonsplit_center_extensions(special, n_iso):
    parent, center = center_extension(special)
    assert (parent.base.order, center.order) == ((24, 2) if special else (48, 2))
    quotient, proj = quotient_gamma_group(parent, center)
    isomorphisms = [c for c in h1(quotient).classes if len(set(c.values)) == quotient.base.order]
    assert len(isomorphisms) == n_iso  # Out(S4) = 1, Out(A4) = Z/2
    homs = enumerate_homs(parent.gamma, parent.base)
    lifts = [tuple(proj.hom(x) for x in hom.image) for hom in homs]
    for cls in isomorphisms:
        res = connecting_delta(parent, center, cls)
        assert not res.trivial
        assert cls.values not in lifts  # a nonzero delta means no lift to a hom into B
    assert six_term_check(parent, center).exact


def test_presentation_over_another_group_is_refused():
    z3, z4 = cyclic_group(3), cyclic_group(4)
    for gamma, pres in ((z3, trivial_module(z4, (2,))), (z4, trivial_module(z3, (2,)))):
        with pytest.raises(ValueError, match="different group"):
            h2_central(gamma, pres)
        with pytest.raises(ValueError, match="different group"):
            h2_brute_force_order(gamma, pres)
    # equal tables built twice are the same group
    assert h2_central(cyclic_group(4), trivial_module(cyclic_group(4), (2,))).order == 2


def test_tables_of_two_groups_are_compared_within_the_budget(monkeypatch):
    # a presentation over the group itself skips the comparison; over an equal group
    # built twice it holds a 2048 x 2048 bool temporary, sized first
    gamma, twin = cyclic_group(2048), cyclic_group(2048)
    pres = trivial_module(twin, (2,))
    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "2")
    with pytest.raises(SizeLimit, match="group table comparison needs 4194304 bytes"):
        h2_central(gamma, pres)
    with pytest.raises(SizeLimit, match="H2 relator tails"):
        h2_central(twin, pres)


def aut_group(base):
    """Aut(base) as a group under composition, with its automorphisms."""
    auts = automorphism_group(base)
    index = {a: i for i, a in enumerate(auts)}
    return make_group([[index[tuple(p[x] for x in q)] for q in auts] for p in auts]), auts


RANDOM_GAMMAS = [cyclic_group(n) for n in range(2, 9)] + [
    z2_power(2),
    symmetric_group(3),
    dihedral_group(4),
    quaternion_group(),
    direct_product(cyclic_group(2), cyclic_group(4)),
    z2_power(3),
]
RANDOM_MODULES = {
    f"Z/{m}": aut_group(cyclic_group(m)) + (cyclic_group(m),) for m in (2, 3, 4, 5, 6, 8)
}
RANDOM_MODULES["(Z/2)^2"] = aut_group(z2_power(2)) + (z2_power(2),)


@st.composite
def random_modules(draw):
    """A group of order <= 8 acting on Z/m or (Z/2)^2 through a hom into Aut.

    (Z/2)^2 is drawn only over groups of order <= 6, where the bar oracle's
    d2 (|gamma| - 1)^3 k rows stays small enough to keep the test fast."""
    gamma = draw(st.sampled_from(RANDOM_GAMMAS))
    names = [n for n in RANDOM_MODULES if gamma.order <= 6 or n != "(Z/2)^2"]
    aut, auts, base = RANDOM_MODULES[draw(st.sampled_from(names))]
    hom = draw(st.sampled_from(enumerate_homs(gamma, aut)))
    parent = GammaGroup(gamma, base, [auts[hom(g)] for g in gamma.elements()])
    return gamma, presentation_of_subgroup(parent, whole_subgroup(base)).presentation


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(random_modules())
def test_random_modules_match_the_bar_routes(case):
    gamma, pres = case
    engine = h2_central(gamma, pres)
    bar = h2_oracle.h2_central(gamma, pres, max_entries=1 << 20)
    dense = h2_oracle.cayley_h2_central(gamma, pres)
    assert engine.invariant_factors == bar.invariant_factors == dense.invariant_factors
    # a generator of a cyclic factor has a nonzero class under every other route's map
    for one, other in ((engine, dense), (dense, engine), (bar, engine), (bar, dense)):
        assert all(any(other.class_of(gen)) for gen in one.generators)
    try:
        assert engine.order == h2_brute_force_order(gamma, pres)
    except SizeLimit:
        pass  # more raw 2-cochains than the brute force's limit


@pytest.mark.parametrize(
    "gamma",
    [direct_product(quaternion_group(), cyclic_group(2)), z2_power(4)],
    ids=["Q8xZ/2", "(Z/2)^4"],
)
def test_coprime_unit_actions_of_order_16(gamma):
    # |gamma| and |A| coprime, so H2 = 0. On some of these inputs a Smith form
    # over Z grows its entries without bound; over Z/N each takes milliseconds
    aut, auts, base = RANDOM_MODULES["Z/5"]
    for hom in enumerate_homs(gamma, aut):
        parent = GammaGroup(gamma, base, [auts[hom(g)] for g in gamma.elements()])
        pres = presentation_of_subgroup(parent, whole_subgroup(base)).presentation
        assert h2_central(gamma, pres).invariant_factors == ()
