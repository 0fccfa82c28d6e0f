import itertools

import numpy as np
import pytest

from cocycle.cohomology import (
    Cocycle,
    EquivariantHom,
    GammaGroup,
    action_from_gen_images,
    coboundary_transform,
    cohomologous,
    conjugation_action,
    h0,
    h1,
    h1_trivial_action,
    induced_map,
    inversion_action,
    is_cocycle,
    kernel_of,
    H1Set,
    make_cocycle,
    match_blocks,
    restrict_to_subgroup,
    trivial_action,
    trivial_cocycle,
)
from cocycle import cohomology, exactness, galois, groups, quad
from cocycle.errors import BijectionFailure, NotStable, SizeLimit
from cocycle.fields import make_tower
from cocycle.groups import (
    GroupHom,
    Subgroup,
    cyclic_group,
    direct_product,
    identity_hom,
    symmetric_group,
    trivial_group,
)


def mu4_inversion():
    """Z/2 acting on the cyclic group of order 4 by inversion."""
    return inversion_action(cyclic_group(2), cyclic_group(4))


class TestGammaGroup:
    def test_rejects_non_automorphism(self):
        z2, z4 = cyclic_group(2), cyclic_group(4)
        action = [[0, 1, 2, 3], [0, 2, 1, 3]]  # bijection but not multiplicative
        with pytest.raises(ValueError):
            GammaGroup(z2, z4, action)

    @pytest.mark.parametrize("action", [[[0, 1], [0.5, 1.2]], np.ones((2, 2), dtype=bool)])
    def test_rejects_entries_that_are_not_integers(self, action):
        z2 = cyclic_group(2)
        with pytest.raises(ValueError, match="^action entries must be integers, got dtype"):
            GammaGroup(z2, z2, action)

    def test_rejects_identity_acting(self):
        z2 = cyclic_group(2)
        with pytest.raises(ValueError):
            GammaGroup(z2, z2, [[1, 0], [0, 1]])

    def test_composition_must_match(self):
        z4, z5 = cyclic_group(4), cyclic_group(5)
        # order-4 automorphism x -> 2x assigned to an order... broken composition:
        double = [(2 * a) % 5 for a in range(5)]
        action = np.array([list(range(5)), double, list(range(5)), double])
        with pytest.raises(ValueError):
            GammaGroup(z4, z5, action)

    def test_action_from_gen_images(self):
        z4, z5 = cyclic_group(4), cyclic_group(5)
        double = tuple((2 * a) % 5 for a in range(5))
        gg = action_from_gen_images(z4, z5, {1: double})
        assert gg.act(1, 1) == 2
        assert gg.act(2, 1) == 4
        assert gg.act(3, 1) == 3

    @pytest.mark.parametrize("image, bad", [((0, -1, -2), -1), ((0, 3, 1), 3), ((0, 2, 5), 5)])
    def test_action_from_gen_images_names_the_first_index_out_of_range(self, image, bad):
        # (0, -1, -2) read through the identity's row used to give the inversion action
        message = rf"generator 1's image entry {bad} is not .* range\(3\)"
        with pytest.raises(ValueError, match=message):
            action_from_gen_images(cyclic_group(2), cyclic_group(3), {1: image})

    @pytest.mark.parametrize("image", [(0, 1), (0, 2, 1, 0)])
    def test_action_from_gen_images_names_a_wrong_length(self, image):
        # numpy said only "could not broadcast input array from shape (2,) into shape (3,)"
        message = rf"generator 1's image has {len(image)} entries, not 3"
        with pytest.raises(ValueError, match=message):
            action_from_gen_images(cyclic_group(2), cyclic_group(3), {1: image})

    def test_conjugation_action(self):
        s3 = symmetric_group(3)
        gg = conjugation_action(s3, s3, identity_hom(s3))
        for g in s3.elements():
            for a in s3.elements():
                assert gg.act(g, a) == s3.conj(g, a)


class TestIsCocycle:
    def test_constant_identity(self):
        gg = mu4_inversion()
        ok, witness = is_cocycle(gg, (0, 0))
        assert ok and witness is None

    def test_generator_value_i(self):
        gg = mu4_inversion()
        ok, _ = is_cocycle(gg, (0, 1))  # alpha_sigma = i: i * i^sigma = i * i^-1 = e
        assert ok

    def test_alpha_e_forced(self):
        gg = mu4_inversion()
        ok, witness = is_cocycle(gg, (1, 1))
        assert not ok
        assert witness is not None

    def test_make_cocycle_raises(self):
        gg = mu4_inversion()
        with pytest.raises(ValueError):
            make_cocycle(gg, (1, 1))

    @pytest.mark.parametrize("values, bad", [((0, 4), 4), ((0, -1), -1), ((9, -1), 9)])
    def test_make_cocycle_names_the_first_index_out_of_range(self, values, bad):
        with pytest.raises(ValueError, match=rf"cocycle value {bad} is not .* range\(4\)"):
            make_cocycle(mu4_inversion(), values)


@pytest.mark.parametrize("a", [-1, 3, -4])
def test_coboundary_transform_names_an_index_out_of_range(a):
    # -1 used to run as the element 2
    gg = inversion_action(cyclic_group(2), cyclic_group(3))
    with pytest.raises(ValueError, match=rf"coboundary element {a} is not .* range\(3\)"):
        coboundary_transform(trivial_cocycle(gg), a)


class TestCohomologous:
    def test_reflexive_with_identity_witness(self):
        gg = mu4_inversion()
        alpha = make_cocycle(gg, (0, 1))
        assert cohomologous(alpha, alpha) == 0

    def test_mu4_minus_one_is_trivial(self):
        # -1 = i^-1 * i^sigma, so the alpha_sigma = -1 cocycle is a coboundary
        gg = mu4_inversion()
        alpha = make_cocycle(gg, (0, 2))
        beta = trivial_cocycle(gg)
        witness = cohomologous(alpha, beta)
        assert witness is not None
        assert coboundary_transform(beta, witness).values == alpha.values

    def test_mu4_i_not_trivial(self):
        gg = mu4_inversion()
        alpha = make_cocycle(gg, (0, 1))
        assert cohomologous(alpha, trivial_cocycle(gg)) is None

    def test_trivial_action_reduces_to_equality_on_abelian(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(4))
        alpha = make_cocycle(gg, (0, 2))
        beta = make_cocycle(gg, (0, 0))
        assert cohomologous(alpha, beta) is None
        assert cohomologous(alpha, alpha) is not None

    def test_symmetry_and_transitivity(self):
        gg = inversion_action(cyclic_group(2), cyclic_group(6))
        cocycles = [
            Cocycle(gg, v) for v in itertools.product(range(6), repeat=2)
            if is_cocycle(gg, v)[0]
        ]
        for a, b in itertools.combinations(cocycles, 2):
            w = cohomologous(a, b)
            if w is not None:
                assert cohomologous(b, a) is not None
        for a, b, c in itertools.combinations(cocycles, 3):
            if cohomologous(a, b) is not None and cohomologous(b, c) is not None:
                assert cohomologous(a, c) is not None


class TestH0:
    def test_trivial_action(self):
        gg = trivial_action(cyclic_group(2), cyclic_group(5))
        assert h0(gg).order == 5

    def test_mu4(self):
        gg = mu4_inversion()
        assert h0(gg).members == (0, 2)

    def test_s3_inner_by_transposition(self):
        s3 = symmetric_group(3)
        z2 = cyclic_group(2)
        t = next(a for a in s3.elements() if s3.perms[a] == (1, 0, 2))
        hom = GroupHom.make(z2, s3, (s3.identity, t))
        gg = conjugation_action(z2, s3, hom)
        fixed = h0(gg)
        assert fixed.order == 2
        assert t in fixed.members


class TestH1:
    def test_trivial_base(self):
        gg = trivial_action(symmetric_group(3), trivial_group())
        res = h1(gg)
        assert res.order == 1

    def test_trivial_gamma(self):
        gg = trivial_action(trivial_group(), symmetric_group(3))
        assert h1(gg).order == 1

    def test_mu4_two_classes(self):
        res = h1(mu4_inversion())
        assert res.order == 2
        assert res.n_cocycles == 4
        keys = set(res.class_of)
        assert keys == {(0, 0), (0, 1), (0, 2), (0, 3)}
        assert res.class_of[(0, 0)] == res.class_of[(0, 2)]
        assert res.class_of[(0, 1)] == res.class_of[(0, 3)]
        assert res.distinguished == res.class_of[(0, 0)]

    def test_sign_homs_of_s3(self):
        # base {1,-1} with trivial action: H1 = Hom(S3, Z/2) = 2 classes
        res = h1(trivial_action(symmetric_group(3), cyclic_group(2)))
        assert res.order == 2

    def test_representatives_are_lex_least_and_sorted(self):
        res = h1(mu4_inversion())
        reps = [c.values for c in res.classes]
        assert reps == sorted(reps)
        for i, rep in enumerate(reps):
            members = [k for k, c in res.class_of.items() if c == i]
            assert rep == min(members)

    def test_alpha_e_is_identity_for_all(self):
        res = h1(inversion_action(cyclic_group(4), cyclic_group(5)))
        e = res.parent.gamma.identity
        for key in res.class_of:
            assert key[e] == 0

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_MAX_CANDIDATES", 10)
        with pytest.raises(SizeLimit):
            h1(trivial_action(cyclic_group(2), symmetric_group(4)))

    def test_nonabelian_gamma_s3_conjugation(self):
        # conventions must survive a nonabelian acting group
        s3 = symmetric_group(3)
        gg = conjugation_action(s3, s3, identity_hom(s3))
        res = h1(gg)
        assert res.order >= 1
        for key in res.class_of:
            assert is_cocycle(gg, key)[0]


class TestH1TrivialAction:
    @pytest.mark.parametrize(
        "gamma,base,expected",
        [
            (cyclic_group(2), cyclic_group(4), 2),
            (cyclic_group(3), symmetric_group(3), 2),
            (cyclic_group(5), trivial_group(), 1),
        ],
    )
    def test_counts(self, gamma, base, expected):
        assert h1_trivial_action(gamma, base).order == expected

    @pytest.mark.parametrize(
        "gamma,base",
        [
            (cyclic_group(2), cyclic_group(4)),
            (cyclic_group(4), cyclic_group(6)),
            (symmetric_group(3), cyclic_group(2)),
        ],
    )
    def test_abelian_base_count_is_hom_count(self, gamma, base):
        # trivial coboundaries: |H1| = |Hom(gamma, base)| exactly
        from cocycle.groups import enumerate_homs

        assert h1_trivial_action(gamma, base).order == len(enumerate_homs(gamma, base))

    @pytest.mark.parametrize(
        "gamma,base",
        [
            (cyclic_group(2), cyclic_group(4)),
            (cyclic_group(3), symmetric_group(3)),
            (cyclic_group(6), symmetric_group(3)),
            (direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(4)),
        ],
    )
    def test_agrees_with_generic_engine_exactly(self, gamma, base):
        via_homs = h1_trivial_action(gamma, base)
        generic = h1(trivial_action(gamma, base))
        assert [c.values for c in via_homs.classes] == [c.values for c in generic.classes]
        assert via_homs.class_of == generic.class_of
        assert via_homs.distinguished == generic.distinguished


class TestInducedMap:
    def test_identity_hom(self):
        gg = mu4_inversion()
        res = h1(gg)
        f = EquivariantHom.make(gg, gg, identity_hom(gg.base))
        assert induced_map(f, res, res) == tuple(range(res.order))

    def test_mu2_into_mu4(self):
        big = mu4_inversion()
        sub = Subgroup.from_members(big.base, [0, 2])
        small, inclusion = restrict_to_subgroup(big, sub)
        h1_small, h1_big = h1(small), h1(big)
        assert h1_small.order == 2
        cmap = induced_map(inclusion, h1_small, h1_big)
        # both classes of H1(Z/2, {±1}) die in H1(Z/2, mu4)
        assert set(cmap) == {h1_big.distinguished}
        assert kernel_of(cmap, h1_big) == (0, 1)

    def test_constant_map_to_trivial_group(self):
        gg = mu4_inversion()
        triv = trivial_action(gg.gamma, trivial_group())
        hom = GroupHom.make(gg.base, triv.base, (0, 0, 0, 0))
        f = EquivariantHom.make(gg, triv, hom)
        cmap = induced_map(f, h1(gg), h1(triv))
        assert set(cmap) == {0}
        assert kernel_of(cmap, h1(triv)) == (0, 1)

    def test_distinguished_maps_to_distinguished(self):
        big = mu4_inversion()
        sub = Subgroup.from_members(big.base, [0, 2])
        small, inclusion = restrict_to_subgroup(big, sub)
        h1_small, h1_big = h1(small), h1(big)
        cmap = induced_map(inclusion, h1_small, h1_big)
        assert cmap[h1_small.distinguished] == h1_big.distinguished

    def test_functoriality_on_composable_pairs(self):
        big = mu4_inversion()
        sub = Subgroup.from_members(big.base, [0, 2])
        small, inclusion = restrict_to_subgroup(big, sub)
        ident = EquivariantHom.make(big, big, identity_hom(big.base))
        h1_small, h1_big = h1(small), h1(big)
        composed = EquivariantHom.make(small, big, ident.hom.compose(inclusion.hom))
        left = induced_map(composed, h1_small, h1_big)
        f_then_g = [
            induced_map(ident, h1_big, h1_big)[c]
            for c in induced_map(inclusion, h1_small, h1_big)
        ]
        assert list(left) == f_then_g


class TestNonzeroIdentity:
    def test_engine_handles_shuffled_tables(self):
        # identity index 1 resp. 2; the JSON table interface allows this
        from cocycle.groups import make_group

        z2 = make_group([[1, 0], [0, 1]])
        assert z2.identity == 1
        assert h1(trivial_action(z2, z2)).order == 2
        z4 = make_group([[2, 3, 0, 1], [3, 0, 1, 2], [0, 1, 2, 3], [1, 2, 3, 0]])
        assert z4.identity == 2
        assert h1(inversion_action(z2, z4)).order == 2


class TestRestrictToSubgroup:
    def test_not_stable(self):
        s3 = symmetric_group(3)
        z2 = cyclic_group(2)
        t = next(a for a in s3.elements() if s3.perms[a] == (1, 0, 2))
        gg = conjugation_action(z2, s3, GroupHom.make(z2, s3, (s3.identity, t)))
        other = next(a for a in s3.elements() if s3.perms[a] == (0, 2, 1))
        unstable = Subgroup.from_members(s3, s3.generated_subgroup([other]))
        with pytest.raises(NotStable):
            restrict_to_subgroup(gg, unstable)

    def test_equivariance_validated(self):
        big = mu4_inversion()
        sub = Subgroup.from_members(big.base, [0, 2])
        small, inclusion = restrict_to_subgroup(big, sub)
        assert small.base.order == 2
        assert inclusion.hom.image == (0, 2)


class TestMatchBlocks:
    def test_returns_the_label_of_each_block(self):
        assert match_blocks([[2, 2], [0], [1, 1, 1]], range(3), "t") == (2, 0, 1)
        assert match_blocks([], (), "t") == ()

    @pytest.mark.parametrize(
        "labels,targets",
        [
            ([[0, 1], [2]], range(3)),  # one block, two labels
            ([[], [0]], range(1)),  # a block with no label
            ([[0], [0]], range(1)),  # two blocks, one label
            ([[0], [1]], range(3)),  # a target missed
            ([[0], [3]], range(2)),  # a label off the targets
        ],
    )
    def test_each_failure_raises(self, labels, targets):
        with pytest.raises(BijectionFailure, match="^blocks: "):
            match_blocks(labels, targets, "blocks")


def _merged(h1_fn):
    """h1 with every cocycle put in class 0, the class count unchanged."""

    def merged(parent, *args):
        real = h1_fn(parent, *args)
        return H1Set(parent, real.classes, dict.fromkeys(real.class_of, 0), 0)

    return merged


class TestBijectionCallers:
    def test_forms_raise_bijection_failure(self, monkeypatch):
        monkeypatch.setattr(cohomology, "h1", _merged(cohomology.h1))
        tower = make_tower(3, 1, 2)
        with pytest.raises(BijectionFailure, match="rational orbits"):
            galois.classify_forms(tower, galois.quadratic_form_tensor(tower, ((1, 0), (0, 1))))

    def test_units_raise_bijection_failure(self, monkeypatch):
        monkeypatch.setattr(cohomology, "h1", _merged(cohomology.h1))
        with pytest.raises(BijectionFailure, match="principal subsets"):
            quad.verify_units_iso(quad.make_ring(5))

    def test_orbit_kernel_raises_bijection_failure(self, monkeypatch):
        monkeypatch.setattr(cohomology, "kernel_of", lambda cmap, target: ())
        parent = mu4_inversion()
        with pytest.raises(BijectionFailure, match="fixed-coset orbits"):
            exactness.orbit_kernel_bijection(parent, Subgroup.from_members(parent.base, [0, 2]))
