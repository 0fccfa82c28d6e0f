import itertools
import tracemalloc

import numpy as np
import pytest

from cocycle import groups, twisted
from cocycle.cohomology import (
    GammaGroup,
    cohomologous,
    h1,
    inversion_action,
    make_cocycle,
    trivial_action,
)
from cocycle.errors import SizeLimit
from cocycle.groups import (
    Subgroup,
    cyclic_group,
    direct_product,
    perm_sign,
    subgroup_as_group,
    symmetric_group,
    trivial_group,
)
from cocycle.twisted import (
    GSpace,
    TwistedSemiaction,
    classify_phs,
    cocycle_of_twist,
    cocycle_twist_correspondence,
    enumerate_twisted_actions,
    is_twisted_action,
    map_group,
    phs_isomorphism,
    shapiro_induce,
    shapiro_verify,
    twist_of_cocycle,
    twisted_space,
)


def mu4_inversion():
    return inversion_action(cyclic_group(2), cyclic_group(4))


class TestTwistedSemiaction:
    def test_untwisted_is_action(self):
        untwisted = TwistedSemiaction.from_vector(mu4_inversion(), (0, 0))  # rho(g, s) = g^s
        ok, witness = is_twisted_action(untwisted)
        assert ok and witness is None

    def test_from_cocycle_round_trip(self):
        gg = mu4_inversion()
        alpha = make_cocycle(gg, (0, 1))
        twist = twist_of_cocycle(alpha)
        assert is_twisted_action(twist)[0]
        assert cocycle_of_twist(twist).values == alpha.values

    def test_constant_twist_fails(self):
        # trivial action on Z/4; rho(g, s) = g * c with c = 1 on the nontrivial
        # gamma element is a semiaction but not an action: fails at g=identity.
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        twist = TwistedSemiaction.from_vector(gg, (0, 1))
        ok, witness = is_twisted_action(twist)
        assert not ok
        g, s, t = witness
        assert s == 1 and t == 1

    def test_semiaction_law_enforced(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(2))
        bad = [[0, 0], [0, 0]]  # rho(1, s) = 0 violates rho(hg,s) = h^s rho(g,s)
        with pytest.raises(ValueError):
            TwistedSemiaction.make(gg, bad)

    @pytest.mark.parametrize("vector", [(0, 1, 3), (0,), (0, 4), (0, -1)])
    def test_from_vector_rejects_malformed_vectors(self, vector):
        # one base element index per gamma element, no truncation, no wrap-around
        with pytest.raises(ValueError, match="vector must hold 2 base element indices"):
            TwistedSemiaction.from_vector(mu4_inversion(), vector)

    def test_restriction_to_identity_is_identity_map(self):
        gg = mu4_inversion()
        for twist in enumerate_twisted_actions(gg):
            e = gg.gamma.identity
            assert all(twist.rho[g][e] == g for g in range(gg.base.order))


class TestCorrespondence:
    def test_mu4_counts(self):
        gg = mu4_inversion()
        corr = cocycle_twist_correspondence(gg)
        assert len(corr.pairs) == 4
        assert corr.h1.order == 2

    def test_trivial_gamma(self):
        gg = trivial_action(trivial_group(), cyclic_group(4))
        assert len(enumerate_twisted_actions(gg)) == 1

    def test_trivial_twist_pairs_with_trivial_cocycle(self):
        gg = mu4_inversion()
        corr = cocycle_twist_correspondence(gg)
        for twist, alpha in corr.pairs:
            if twist.vector == (0, 0):
                assert alpha.values == (0, 0)
                break
        else:
            pytest.fail("untwisted action missing from the correspondence")

    def test_cohomologous_iff_isomorphic(self):
        cases = [
            mu4_inversion(),
            trivial_action(cyclic_group(2), symmetric_group(3)),
            inversion_action(cyclic_group(4), cyclic_group(5)),
            trivial_action(cyclic_group(3), cyclic_group(3)),
        ]
        for gg in cases:
            corr = cocycle_twist_correspondence(gg)
            for (t1, a1), (t2, a2) in itertools.combinations(corr.pairs, 2):
                iso = phs_isomorphism(twisted_space(t1), twisted_space(t2))
                assert (iso is not None) == (cohomologous(a1, a2) is not None)


class TestGSpaceShapes:
    def space(self):
        return twisted_space(TwistedSemiaction.from_vector(mu4_inversion(), (0, 0)))

    def test_wrong_row_counts(self):
        space = self.space()
        with pytest.raises(ValueError, match="need 4 G-rows and 2 gamma-rows of 4 points"):
            GSpace.make(space.parent, space.g_action[:3], space.gamma_action, principal=True)
        with pytest.raises(ValueError, match="need 4 G-rows and 2 gamma-rows of 4 points"):
            GSpace.make(space.parent, space.g_action, space.gamma_action * 2, principal=True)

    def test_ragged_rows(self):
        space = self.space()
        ragged = space.g_action[:3] + (space.g_action[3] + (0,),)
        with pytest.raises(ValueError, match="need 4 G-rows and 2 gamma-rows of 4 points"):
            GSpace.make(space.parent, ragged, space.gamma_action, principal=True)

    def test_out_of_range_entries(self):
        space = self.space()
        for bad in (4, -1):
            s_act = (space.gamma_action[0], space.gamma_action[1][:3] + (bad,))
            with pytest.raises(ValueError, match="action entries must be points below 4"):
                GSpace.make(space.parent, space.g_action, s_act, principal=True)


class TestClassifyPhs:
    def test_mu4_two_classes(self):
        result = classify_phs(mu4_inversion())
        assert result.n_classes == 2

    def test_trivial_base(self):
        result = classify_phs(trivial_action(cyclic_group(3), trivial_group()))
        assert result.n_classes == 1

    def test_counts_match_h1_on_grid(self):
        z2, z3, z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
        v4 = direct_product(z2, z2)
        cases = [
            trivial_action(z2, z3),
            inversion_action(z2, z3),
            inversion_action(z2, cyclic_group(6)),
            trivial_action(z4, z2),
            inversion_action(z4, cyclic_group(5)),
            trivial_action(v4, z3),
        ]
        for gg in cases:
            result = classify_phs(gg)
            assert result.n_classes == h1(gg).order

    def test_space_points_and_freeness(self):
        gg = mu4_inversion()
        for space in classify_phs(gg).spaces:
            assert space.principal
            assert space.n_points == 4

    def test_full_map_group_single_class(self):
        # H1 of the full map group is trivial, so one space class
        ind = map_group(cyclic_group(2), cyclic_group(2))
        result = classify_phs(ind.gamma_group)
        assert result.n_classes == 1


class TestMapGroupAndShapiro:
    def test_induce_whole_group(self):
        # H = gamma: the induced group is a copy of G
        s3 = symmetric_group(3)
        whole = Subgroup(s3, tuple(range(6)))
        whole_group, _ = subgroup_as_group(whole)
        action = trivial_action(whole_group, cyclic_group(3))
        ind = shapiro_induce(s3, whole, action)
        assert ind.gamma_group.base.order == 3

    def test_induce_trivial_subgroup_swap(self):
        # gamma = Z/2, H = e, G = Z/2: induced = Z/2 x Z/2 with coordinate swap
        z2 = cyclic_group(2)
        ind = map_group(z2, cyclic_group(2))
        assert ind.gamma_group.base.order == 4
        sigma_action = ind.gamma_group.action[1]
        swapped = {tuple(ind.maps[sigma_action[i]]) for i in range(4)}
        assert swapped == {(m[1], m[0]) for m in ind.maps}

    def test_map_group_order(self):
        ind = map_group(cyclic_group(3), cyclic_group(2))
        assert ind.gamma_group.base.order == 8

    def test_shapiro_s3_a3(self):
        s3 = symmetric_group(3)
        a3 = Subgroup.from_members(
            s3, [a for a in s3.elements() if perm_sign(s3.perms[a]) == 1]
        )
        h_group, _ = subgroup_as_group(a3)
        g_action = trivial_action(h_group, cyclic_group(3))
        report = shapiro_verify(s3, a3, g_action)
        assert report.h1_subgroup.order == 3
        assert report.h1_induced.order == 3

    def test_shapiro_z4_z2_nontrivial_action(self):
        z4 = cyclic_group(4)
        h_sub = Subgroup.from_members(z4, [0, 2])
        h_group, _ = subgroup_as_group(h_sub)
        g_action = inversion_action(h_group, cyclic_group(4))
        report = shapiro_verify(z4, h_sub, g_action)
        assert report.h1_induced.order == report.h1_subgroup.order == 2

    def test_shapiro_s3_transposition_subgroup(self):
        s3 = symmetric_group(3)
        t = next(a for a in s3.elements() if s3.perms[a] == (1, 0, 2))
        h_sub = Subgroup.from_members(s3, s3.generated_subgroup([t]))
        h_group, _ = subgroup_as_group(h_sub)
        g_action = inversion_action(h_group, cyclic_group(3))
        report = shapiro_verify(s3, h_sub, g_action)
        assert report.h1_induced.order == report.h1_subgroup.order

    def test_trivial_h1_of_full_map_group(self):
        for gamma, g in [
            (cyclic_group(2), cyclic_group(3)),
            (cyclic_group(3), cyclic_group(2)),
            (cyclic_group(4), cyclic_group(2)),
        ]:
            ind = map_group(gamma, g)
            assert h1(ind.gamma_group).order == 1

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(twisted, "DEFAULT_MAX_CANDIDATES", 100)
        with pytest.raises(SizeLimit):
            map_group(cyclic_group(4), cyclic_group(6))

    def test_induced_table_sized_before_it_is_built(self, monkeypatch):
        # 1,600 maps Z/2 -> Z/40: a uint16 table of 5 MB, over a 4 MiB budget
        gamma, g = cyclic_group(2), cyclic_group(40)
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "4")
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="group multiplication table"):
                map_group(gamma, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _scan_every_vector(parent):
    """The unscreened scan: every vector in product order, built and checked in full."""
    others = [s for s in range(parent.gamma.order) if s != parent.gamma.identity]
    found = []
    for choice in itertools.product(range(parent.base.order), repeat=len(others)):
        vec = [parent.base.identity] * parent.gamma.order
        for s, v in zip(others, choice):
            vec[s] = v
        if is_twisted_action(TwistedSemiaction.from_vector(parent, vec))[0]:
            found.append(tuple(vec))
    return found


def _screen_cases():
    s3, z3 = symmetric_group(3), cyclic_group(3)
    sign = [z3.inv if perm_sign(s3.perms[g]) < 0 else (lambda a: a) for g in range(6)]
    inverting = GammaGroup(s3, z3, np.array([[f(a) for a in range(3)] for f in sign]))
    return [
        ("trivial gamma on S3", trivial_action(trivial_group(), s3)),
        ("Z/2 on the trivial group", trivial_action(cyclic_group(2), trivial_group())),
        ("mu4 inversion", mu4_inversion()),
        ("S3 inverting Z/3", inverting),
        ("S3 on S3 by conjugation", GammaGroup(s3, s3, s3.conjugation())),
        ("Z/3 on Z/2 x Z/4", trivial_action(cyclic_group(3), direct_product(cyclic_group(2), cyclic_group(4)))),
    ]


@pytest.mark.parametrize("name,parent", _screen_cases(), ids=[n for n, _ in _screen_cases()])
@pytest.mark.parametrize("chunk", [None, 7])
def test_screened_scan_keeps_every_twisted_action_in_order(name, parent, chunk, monkeypatch):
    if chunk is not None:
        # chunks of seven vectors
        monkeypatch.setattr(groups, "ENGINE_CHUNK", chunk * parent.gamma.order)
    got = [t.vector for t in enumerate_twisted_actions(parent)]
    assert got == _scan_every_vector(parent)
    assert len(got) == h1(parent).n_cocycles
