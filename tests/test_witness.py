"""The first witness each validator reports, on inputs with several violations.

Validators check their laws as whole truth arrays and report the first
failure in the order of the nested loops that state the law. Each case
below has several violations; ``loop_first`` finds the first by running
those loops. It also checks that loops nested in any other order find
another first violation, and that it reads differently with its indices in
that order; so a truth array with its axes in another order fails the case.
"""

import itertools

import numpy as np
import pytest

from cocycle.cohomology import (
    EquivariantHom,
    conjugation_action,
    inversion_action,
    is_cocycle,
    restrict_to_subgroup,
    trivial_action,
    trivial_cocycle,
    action_from_gen_images,
)
from cocycle.errors import NotNormal, NotStable
from cocycle.exactness import connecting_delta
from cocycle.groups import (
    GroupHom,
    Subgroup,
    action_law,
    cyclic_group,
    direct_product,
    first_violation,
    identity_hom,
    quaternion_group,
    quotient_group,
    symmetric_group,
    whole_subgroup,
)
from cocycle.twisted import (
    GSpace,
    TwistedSemiaction,
    enumerate_twisted_actions,
    is_twisted_action,
    twisted_space,
)


def loop_first(fails, *ranges):
    """First index tuple of the nested loops over ``ranges`` at which ``fails``
    holds; every other nesting order must report another tuple."""
    found = [w for w in itertools.product(*ranges) if fails(*w)]
    for perm in itertools.permutations(range(len(ranges))):
        if perm != tuple(range(len(ranges))):
            key = lambda w: tuple(w[i] for i in perm)  # noqa: E731
            first = min(found, key=key)
            assert first != found[0] and key(first) != found[0]
    return found[0]


def s3_inner():
    s3 = symmetric_group(3)
    return conjugation_action(s3, s3, identity_hom(s3))


class TestOwners:
    def test_first_violation_is_row_major(self):
        holds = np.ones((2, 3, 4), dtype=bool)
        assert first_violation(holds) is None
        holds[1, 0, 2] = holds[0, 2, 1] = holds[1, 2, 0] = False
        assert first_violation(holds) == (0, 2, 1)
        assert first_violation(holds.transpose(2, 1, 0)) == (0, 2, 1)
        assert all(type(i) is int for i in first_violation(holds))

    def test_action_law_axes(self):
        # rows of S3 acting on itself by left translation are an action;
        # using them with the opposite table breaks the law where hg != gh
        s3 = symmetric_group(3)
        assert action_law(s3.table, s3.table).all()
        holds = action_law(s3.table.T, s3.table)
        for h, g, x in itertools.product(s3.elements(), repeat=3):
            assert holds[h, g, x] == (s3.mul(h, g) == s3.mul(g, h))

    def test_conjugation_table(self):
        q8 = quaternion_group()
        conj = q8.conjugation()
        for g, a in itertools.product(q8.elements(), repeat=2):
            assert conj[g, a] == q8.mul(q8.mul(g, a), q8.inv(g))

    def test_position_and_stray(self):
        s3 = symmetric_group(3)
        sub = Subgroup.from_members(s3, [0, 1])
        assert sub.position().tolist() == [0, 1, -1, -1, -1, -1]
        assert sub.stray(s3.table[[0]]) is None  # the identity row keeps every member
        assert sub.stray(s3.conjugation()) == (2, 1)


class TestGroupWitnesses:
    def test_from_members_inverse_before_products(self):
        # a = 1 fails both its inverse (4) and the product 1 + 2 = 3
        with pytest.raises(ValueError, match=r"inverse at element 1$"):
            Subgroup.from_members(cyclic_group(5), [2, 0, 1])

    def test_from_members_product_pair(self):
        s3 = symmetric_group(3)
        members = [5, 4, 3, 2, 0]  # closed under inverse, not under products
        a, b = loop_first(
            lambda a, b: s3.mul(a, b) not in members, sorted(members), sorted(members)
        )
        with pytest.raises(ValueError, match=rf"product at \({a}, {b}\)$"):
            Subgroup.from_members(s3, members)

    def test_not_normal(self):
        s4 = symmetric_group(4)
        s3 = Subgroup.from_members(s4, range(6))  # the permutations fixing the last point
        expected = loop_first(
            lambda g, a: s4.conj(g, a) not in s3.members, s4.elements(), s3.members
        )
        assert expected == (6, 2)
        with pytest.raises(NotNormal) as err:
            quotient_group(s4, s3)
        assert err.value.witness == expected
        assert not s3.is_normal()

    def test_hom_law(self):
        s3 = symmetric_group(3)
        image = (0, 0, 0, 5, 0, 1)
        expected = loop_first(
            lambda a, b: image[s3.mul(a, b)] != s3.mul(image[a], image[b]),
            s3.elements(),
            s3.elements(),
        )
        with pytest.raises(ValueError, match=rf"pair \({expected[0]}, {expected[1]}\)$"):
            GroupHom.make(s3, s3, image)


class TestCohomologyWitnesses:
    def test_is_cocycle(self):
        parent = s3_inner()
        gamma, base = parent.gamma, parent.base
        values = (0, 0, 2, 0, 5, 2)
        expected = loop_first(
            lambda h, g: values[gamma.mul(h, g)] != base.mul(values[h], parent.act(h, values[g])),
            gamma.elements(),
            gamma.elements(),
        )
        assert is_cocycle(parent, values) == (False, expected)

    def test_equivariance(self):
        # S3 x Z/2 with the trivial action and with conjugation by the S3 factor;
        # projecting onto that factor does not commute with the actions
        s3 = symmetric_group(3)
        base = direct_product(s3, cyclic_group(2))
        flat = trivial_action(s3, base)
        inner = conjugation_action(s3, base, GroupHom.make(s3, base, [2 * g for g in range(6)]))
        proj = GroupHom.make(base, base, [2 * (x // 2) for x in range(12)])
        g, a = loop_first(
            lambda g, a: proj(flat.act(g, a)) != inner.act(g, proj(a)), range(6), range(12)
        )
        with pytest.raises(ValueError, match=rf"\(gamma={g}, a={a}\)$"):
            EquivariantHom.make(flat, inner, proj)

    def test_not_stable(self):
        z2 = cyclic_group(2)
        cube = direct_product(direct_product(z2, z2), z2)
        rotate = tuple((a // 2) + 4 * (a % 2) for a in range(8))
        parent = action_from_gen_images(cyclic_group(3), cube, {1: rotate})
        sub = Subgroup.from_members(cube, [0, 1, 4, 5])
        g, a = loop_first(
            lambda g, a: parent.act(g, a) not in sub.members, range(3), sub.members
        )
        with pytest.raises(NotStable) as err:
            restrict_to_subgroup(parent, sub)
        assert err.value.witness == (a, g)

    def test_not_central(self):
        s4 = symmetric_group(4)
        parent = trivial_action(cyclic_group(2), s4)
        v4 = Subgroup.from_members(s4, [0, 7, 16, 23])  # normal, not central
        x, a = loop_first(
            lambda x, a: s4.mul(x, a) != s4.mul(a, x), s4.elements(), v4.members
        )
        with pytest.raises(ValueError, match=rf"not central: {a} and {x} do not"):
            connecting_delta(parent, v4, trivial_cocycle(parent))


class TestTwistedWitnesses:
    def test_semiaction_law(self):
        parent = action_from_gen_images(cyclic_group(4), cyclic_group(5), {1: (0, 2, 4, 1, 3)})
        base = parent.base
        rho = ((0, 0, 0, 0), (1, 2, 4, 3), (2, 4, 3, 1), (3, 1, 4, 4), (4, 0, 1, 2))
        h, g, s = loop_first(
            lambda h, g, s: rho[base.mul(h, g)][s] != base.mul(parent.act(s, h), rho[g][s]),
            range(5),
            range(5),
            range(4),
        )
        with pytest.raises(ValueError, match=rf"\(h={h}, g={g}, s={s}\)$"):
            TwistedSemiaction.make(parent, rho)

    def test_twisted_action(self):
        parent = inversion_action(symmetric_group(3), cyclic_group(3))
        gamma = parent.gamma
        # from a vector, rho breaks the law on whole columns of g; this table does not
        rho = ((0, 0, 1, 1, 2, 2), (1, 2, 0, 2, 2, 1), (2, 1, 2, 2, 1, 0))
        expected = loop_first(
            lambda g, s, t: rho[rho[g][s]][t] != rho[g][gamma.mul(t, s)],
            range(3),
            range(6),
            range(6),
        )
        semiaction = TwistedSemiaction(parent, rho)
        assert is_twisted_action(semiaction) == (False, expected)

    def test_g_action_law(self):
        parent = s3_inner()
        base = parent.base
        space = twisted_space(enumerate_twisted_actions(parent)[0])
        g_act = [
            (0, 1, 2, 3, 4, 5),
            (1, 0, 4, 5, 2, 3),
            (2, 1, 0, 4, 3, 5),
            (3, 2, 5, 4, 0, 1),
            (4, 5, 1, 0, 3, 2),
            (1, 5, 3, 2, 4, 0),
        ]
        g, g2, x = loop_first(
            lambda g, g2, x: g_act[base.mul(g, g2)][x] != g_act[g][g_act[g2][x]],
            range(6),
            range(6),
            range(6),
        )
        with pytest.raises(ValueError, match=rf"G-action law fails at \({g},{g2},{x}\)$"):
            GSpace.make(parent, g_act, space.gamma_action, principal=True)

    def test_gamma_action_law(self):
        parent = inversion_action(symmetric_group(3), cyclic_group(3))
        gamma = parent.gamma
        space = twisted_space(enumerate_twisted_actions(parent)[0])
        s_act = [(0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 1, 2), (1, 0, 2), (0, 2, 1)]
        s, t, x = loop_first(
            lambda s, t, x: s_act[t][s_act[s][x]] != s_act[gamma.mul(t, s)][x],
            range(6),
            range(6),
            range(3),
        )
        with pytest.raises(ValueError, match=rf"gamma-action law fails at \({s},{t},{x}\)$"):
            GSpace.make(parent, space.g_action, s_act, principal=True)

    def test_compatibility(self):
        # a valid gamma-action moved by a relabelling of the points stops commuting
        parent = s3_inner()
        space = twisted_space(enumerate_twisted_actions(parent)[0])
        g_act = space.g_action
        perm = (0, 1, 4, 2, 3, 5)
        s_act = [tuple(perm[row[perm.index(x)]] for x in range(6)) for row in space.gamma_action]
        g, s, x = loop_first(
            lambda g, s, x: g_act[parent.act(s, g)][s_act[s][x]] != s_act[s][g_act[g][x]],
            range(6),
            range(6),
            range(6),
        )
        with pytest.raises(ValueError, match=rf"fails at \({g},{s},{x}\)$"):
            GSpace.make(parent, g_act, s_act, principal=True)
