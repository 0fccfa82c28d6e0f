"""H2 from one Smith form of the scaled d2, against the stacked-kernel route.

``tests/h2_oracle.py`` keeps the route the package used to run; these tests
compare invariant factors and coboundary decisions with it, check classical
values, and check ``H2Group.class_of`` on generators, coboundaries and
non-cocycles.
"""

import itertools
import math
import random

import pytest

import cocycle.exactness as X
import cocycle.snf as snf
from cocycle import (
    AbelianPresentation,
    connecting_delta,
    cyclic_group,
    dihedral_group,
    direct_product,
    h1,
    h2_central,
    quaternion_group,
    quotient_gamma_group,
    symmetric_group,
    trivial_module,
)
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


def is_cocycle(gamma, pres, vec):
    """g.c(h,k) - c(gh,k) + c(g,hk) - c(g,h) = 0 for all triples, through pres.apply."""
    for g, h, k in itertools.product(range(gamma.order), repeat=3):
        terms = (
            pres.apply(g, cochain_value(gamma, pres, vec, h, k)),
            cochain_value(gamma, pres, vec, gamma.mul(g, h), k),
            cochain_value(gamma, pres, vec, g, gamma.mul(h, k)),
            cochain_value(gamma, pres, vec, g, h),
        )
        for s, n in enumerate(pres.factors):
            if (terms[0][s] - terms[1][s] + terms[2][s] - terms[3][s]) % n:
                return False
    return True


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
    d2 = X._normalized_differential(gamma, pres, 2)
    assert X._normalized_differential(gamma, pres, 1) == d1
    assert [sorted((j, c) for j, c in enumerate(row) if c) for row in d2] == [
        [(j, c) for j, c in row if c] for row in d2_rows
    ]
    assert [X._moduli(gamma, pres, n) for n in (1, 2, 3)] == [moduli1, moduli2, moduli3]


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


@pytest.mark.parametrize("name,gamma,pres", CASES, ids=[c[0] for c in CASES])
def test_coboundaries_have_zero_class(name, gamma, pres):
    engine = h2_central(gamma, pres)
    d1 = X._normalized_differential(gamma, pres, 1)
    moduli1, moduli2 = X._moduli(gamma, pres, 1), X._moduli(gamma, pres, 2)
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


def test_class_is_additive():
    gamma = cyclic_group(4)
    pres = trivial_module(gamma, (2, 4))
    engine = h2_central(gamma, pres)
    moduli2 = X._moduli(gamma, pres, 2)
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
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_two_smith_forms_per_h2(monkeypatch):
    gamma = dihedral_group(4)
    direct = count_calls(monkeypatch, X, "smith_normal_form")
    inside = count_calls(monkeypatch, snf, "smith_normal_form")
    h2_central(gamma, trivial_module(gamma, (2,)))
    assert [(len(m), len(m[0])) for m in direct] == [(343, 49)]  # scaled d2
    assert [(len(m), len(m[0])) for m in inside] == [(49, 56)]  # relations


def test_delta_uses_one_h2_and_no_smith_form_of_its_own(monkeypatch):
    name, parent, central = central_extension_corpus()[1]
    quotient, _ = quotient_gamma_group(parent, central)
    cls = h1(quotient).classes[-1]
    h2_calls = count_calls(monkeypatch, X, "h2_central")
    direct = count_calls(monkeypatch, X, "smith_normal_form")
    connecting_delta(parent, central, cls)
    assert len(h2_calls) == 1
    assert len(direct) == 1  # the scaled d2 inside h2_central


def test_exponent_scaling_on_mixed_factors():
    # rows of modulus 2 and 4 share the exponent 4; H2(Z/2, Z/2 x Z/4) = (Z/2)^2
    gamma = cyclic_group(2)
    engine = h2_central(gamma, trivial_module(gamma, (2, 4)))
    assert engine.invariant_factors == (2, 2)
    assert engine.order == math.gcd(2, 2) * math.gcd(2, 4)
