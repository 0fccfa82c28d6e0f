import itertools
import tracemalloc

import numpy as np
import pytest

import engine_oracle as oracle

from cocycle import groups
from cocycle.cohomology import inversion_action
from cocycle.errors import NoIdentity, NoInverse, NotAssociative, NotNormal, SizeLimit
from cocycle.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    cyclic_group,
    dihedral_group,
    direct_product,
    enumerate_homs,
    homs_up_to_conjugacy,
    make_group,
    perm_cycle_type,
    perm_sign,
    quaternion_group,
    quotient_group,
    subgroup_as_group,
    symmetric_group,
    whole_subgroup,
)


class TestMakeGroup:
    def test_trivial(self):
        g = make_group([[0]])
        assert g.order == 1
        assert g.identity == 0

    def test_z2(self):
        g = make_group([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.mul(1, 1) == 0
        assert g.inv(1) == 1

    @pytest.mark.parametrize(
        "table", [[[0, 1.0], [1, 0]], np.array([[0.0, 1.9], [1.0, 0.0]]), [[True, False], [False, True]]]
    )
    def test_rejects_entries_that_are_not_integers(self, table):
        # the cast to the table dtype would truncate floats and read bools as 0/1
        with pytest.raises(ValueError, match="^table entries must be integers, got dtype"):
            make_group(table)

    def test_no_inverse(self):
        with pytest.raises(NoInverse) as exc:
            make_group([[0, 1], [1, 1]])
        assert exc.value.element == 1

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            make_group([[1, 0], [1, 0]])

    def test_not_associative(self):
        # left-cancellative latin square that is not a group: subtraction mod 3
        table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises((NotAssociative, NoIdentity)):
            make_group(table)

    def test_witness_reported(self):
        # identity row/col forced, broken elsewhere
        table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises((NotAssociative, NoInverse)) as exc:
            make_group(table)
        if isinstance(exc.value, NotAssociative):
            a, b, c = exc.value.triple
            t = np.array(table)
            assert t[t[a, b], c] != t[a, t[b, c]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_group([[0, 1], [1, 5]])

    def test_associativity_is_exact_above_64(self):
        # Z/512 with 2 * 3 = 6 instead of 5: identity and inverses survive
        n = 512
        table = (np.arange(n)[:, None] + np.arange(n)) % n
        table[2, 3] = 6
        # the fixed-seed sample of 10**5 triples once used above order 64 misses it
        x, y, z = np.random.default_rng(917).integers(0, n, size=(100_000, 3)).T
        assert np.array_equal(table[table[x, y], z], table[x, table[y, z]])
        with pytest.raises(NotAssociative) as exc:
            make_group(table)
        a, b, c = exc.value.triple
        assert table[table[a, b], c] != table[a, table[b, c]]

    def test_associativity_beyond_the_first_generator(self):
        # the 16 unit octonions +-e_i at index 2i + sign: -1 (index 1, the
        # first generator found) associates with everything, e1, e2, e4 do not
        lines = [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)]
        unit = {}  # e_i * e_j = (sign, k) for i != j, both nonzero
        for a, b, c in lines:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                unit[x, y], unit[y, x] = (0, z), (1, z)
        table = np.empty((16, 16), dtype=np.int64)
        for p, q in itertools.product(range(16), repeat=2):
            i, j = p // 2, q // 2
            sign, k = (0, i + j) if 0 in (i, j) else (1, 0) if i == j else unit[i, j]
            table[p, q] = 2 * k + (sign + p + q) % 2
        # (e1 e2) e4 = e7 but e1 (e2 e4) = -e7
        assert table[table[2, 4], 8] == 14 and table[2, table[4, 8]] == 15
        with pytest.raises(NotAssociative) as exc:
            make_group(table)
        a, b, c = exc.value.triple
        assert table[table[a, b], c] != table[a, table[b, c]]

    @pytest.mark.parametrize(
        "group",
        [cyclic_group(12), symmetric_group(4), dihedral_group(5), quaternion_group()],
        ids=["Z12", "S4", "D5", "Q8"],
    )
    def test_light_test_agrees_with_all_triples(self, group):
        # one entry off the identity row and column changed: the generator
        # check must reject exactly the tables that fail on some triple
        rng = np.random.default_rng(group.order)
        n, e = group.order, group.identity
        for _ in range(25):
            table = np.array(group.table, dtype=np.int64)
            a, b = rng.choice([g for g in range(n) if g != e], size=2)
            table[a, b] = rng.integers(n)
            exhaustive = np.array_equal(table[table, :], table[:, table])
            try:
                make_group(table)
                passed = True
            except NotAssociative:
                passed = False
            except NoInverse:  # checked after associativity passed
                passed = True
            assert passed == exhaustive


class TestFamilies:
    def test_symmetric_1(self):
        g = symmetric_group(1)
        assert g.order == 1

    def test_symmetric_3(self):
        g = symmetric_group(3)
        assert g.order == 6
        assert g.perms is not None
        signs = [perm_sign(p) for p in g.perms]
        assert signs.count(-1) == 3
        assert g.perms[g.identity] == (0, 1, 2)

    def test_symmetric_labels(self):
        g = symmetric_group(3)
        assert g.labels[g.identity] == "()"
        assert "(1 2)" in g.labels

    def test_symmetric_size_limit(self):
        with pytest.raises(SizeLimit):
            symmetric_group(9)

    def test_cyclic_4(self):
        g = cyclic_group(4)
        assert g.order == 4
        assert g.element_order(1) == 4
        assert g.generated_subgroup([1]) == (0, 1, 2, 3)

    def test_dihedral(self):
        g = dihedral_group(4)
        assert g.order == 8
        assert not g.is_abelian()
        # s r s = r^-1
        s, r = 4, 1
        assert g.mul(g.mul(s, r), s) == g.inv(r)
        for n in range(1, 9):
            # s^e r^i at index e*n + i acts on the flags (k, o) of the n-gon, r first;
            # the action is faithful for every n, so products are compared as maps
            flags = list(itertools.product(range(n), (0, 1)))

            def act(a, flag, n=n):
                e, i = divmod(a, n)
                k, o = (flag[0] + i) % n, flag[1]
                return (-k % n, 1 - o) if e else (k, o)

            g = dihedral_group(n)
            maps = {a: tuple(act(a, f) for f in flags) for a in g.elements()}
            assert len(set(maps.values())) == 2 * n
            for a, b in itertools.product(g.elements(), repeat=2):
                assert maps[g.mul(a, b)] == tuple(act(a, act(b, f)) for f in flags)

    def test_dihedral_small(self):
        assert dihedral_group(1).order == 2
        assert dihedral_group(2).is_abelian()

    def test_direct_product(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert v4.order == 4
        assert v4.is_abelian()
        assert all(v4.element_order(a) <= 2 for a in v4.elements())

    def test_cycle_type(self):
        assert perm_cycle_type((1, 0, 2)) == (2, 1)
        assert perm_cycle_type((1, 2, 0)) == (3,)

    ORDER_3000 = [
        (cyclic_group, (3000,)),
        (dihedral_group, (1500,)),
        (direct_product, (cyclic_group(50), cyclic_group(60))),
    ]

    @pytest.mark.parametrize("build,args", ORDER_3000, ids=["Z3000", "D1500", "Z50xZ60"])
    def test_table_sized_before_it_is_built(self, monkeypatch, build, args):
        # a uint16 table of order 3000 is 18 MB, over a 16 MiB budget
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "16")
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit):
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("build,args", ORDER_3000, ids=["Z3000", "D1500", "Z50xZ60"])
    def test_budget_judges_the_final_dtype(self, monkeypatch, build, args):
        # 18 MB fits 32 MiB, where an int64 table (72 MB) would not; rows come in chunks
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "32")
        table = build(*args).table
        n = np.arange(3000)
        if build is cyclic_group:
            expected = (n[:, None] + n) % 3000
        elif build is dihedral_group:
            e, i = np.divmod(n, 1500)
            expected = (e[:, None] ^ e) * 1500 + (i + (1 - 2 * e) * i[:, None]) % 1500
        else:
            a, b = np.divmod(n, 60)
            expected = (a[:, None] + a) % 50 * 60 + (b[:, None] + b) % 60
        assert table.dtype == np.uint16 and np.array_equal(table, expected)

    def test_constructor_keeps_its_fresh_table(self):
        # the 17.2 MiB uint16 table plus one row chunk, where a copy doubled the table
        tracemalloc.start()
        try:
            cyclic_group(3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 << 20

    @pytest.mark.parametrize("build,args", ORDER_3000[1:], ids=["D1500", "Z50xZ60"])
    def test_row_blocks_are_built_in_place(self, build, args):
        # the same bound as cyclic_group(3000): the table plus one block in its final dtype
        tracemalloc.start()
        try:
            build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 << 20

    def test_caller_array_is_copied(self):
        table = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.uint8)  # the final dtype
        group = make_group(table)
        assert table.flags.writeable and not group.table.flags.writeable
        assert not np.shares_memory(table, group.table)
        table[1] = 0
        assert group.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


class TestScalarMethodsCheckIndices:
    # numpy wraps a negative index to an element from the end of the table

    @pytest.mark.parametrize("a, b, bad", [(-1, 0, -1), (0, 6, 6), (2, -3, -3)])
    def test_mul(self, a, b, bad):
        with pytest.raises(ValueError, match=rf"element {bad} is not .* range\(6\)"):
            cyclic_group(6).mul(a, b)

    @pytest.mark.parametrize("a", [-2, 6])
    def test_power(self, a):
        with pytest.raises(ValueError, match=rf"element {a} is not .* range\(6\)"):
            cyclic_group(6).power(a, 1)

    @pytest.mark.parametrize("a", [-1, 6])
    def test_element_order(self, a):
        with pytest.raises(ValueError, match=rf"element {a} is not .* range\(6\)"):
            cyclic_group(6).element_order(a)

    @pytest.mark.parametrize("seeds, bad", [([-1], -1), ([2, 6], 6), ([7, -1], 7)])
    def test_generated_subgroup(self, seeds, bad):
        with pytest.raises(ValueError, match=rf"subgroup seed {bad} is not .* range\(6\)"):
            cyclic_group(6).generated_subgroup(seeds)

    @pytest.mark.parametrize("a", [-1, 6])
    def test_inv(self, a):
        with pytest.raises(ValueError, match=rf"element {a} is not .* range\(6\)"):
            cyclic_group(6).inv(a)

    @pytest.mark.parametrize("g, a, bad", [(-1, 1, -1), (1, 6, 6), (7, -2, 7)])
    def test_conj(self, g, a, bad):
        with pytest.raises(ValueError, match=rf"element {bad} is not .* range\(6\)"):
            cyclic_group(6).conj(g, a)

    @pytest.mark.parametrize(
        "g, a, bad",
        [
            (-1, 1, "gamma element -1"),
            (2, 0, "gamma element 2"),
            (1, -1, "base element -1"),
            (0, 3, "base element 3"),
        ],
    )
    def test_act(self, g, a, bad):
        # Z/2 inverting Z/3: act(-1, 1) would read the generator's row
        parent = inversion_action(cyclic_group(2), cyclic_group(3))
        order = 2 if bad.startswith("gamma") else 3
        with pytest.raises(ValueError, match=rf"^{bad} is not .* range\({order}\)"):
            parent.act(g, a)


class TestSubgroups:
    def test_from_members_validates(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError):
            Subgroup.from_members(g, [0, 1])
        sub = Subgroup.from_members(g, [0, 2])
        assert sub.order == 2

    @pytest.mark.parametrize("members, bad", [([0, -1], -1), ([0, 1, 2], 2), ([3, 0, -5], 3)])
    def test_from_members_names_the_first_index_out_of_range(self, members, bad):
        # numpy would wrap -1 to the last element and raise IndexError at 2
        with pytest.raises(ValueError, match=rf"subgroup member {bad} is not .* range\(2\)"):
            Subgroup.from_members(cyclic_group(2), members)

    def test_all_subgroups_s3(self):
        g = symmetric_group(3)
        subs = all_subgroups(g)
        assert len(subs) == 6  # 1, three C2, A3, S3
        orders = sorted(s.order for s in subs)
        assert orders == [1, 2, 2, 2, 3, 6]

    def test_all_subgroups_q8(self):
        # quaternion group via its table: elements 1,-1,i,-i,j,-j,k,-k
        q8 = quaternion_group()
        subs = all_subgroups(q8)
        assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]
        assert all(s.is_normal() for s in subs)

    def test_all_subgroups_needs_four_generators(self):
        # (Z/2)^4 has 1 + 15 + 35 + 15 + 1 subgroups; the whole group needs 4 generators
        z2 = cyclic_group(2)
        e4 = direct_product(direct_product(z2, z2), direct_product(z2, z2))
        subs = all_subgroups(e4)
        assert len(subs) == 67
        assert [sum(1 for s in subs if s.order == 2**r) for r in range(5)] == [1, 15, 35, 15, 1]

    def test_all_subgroups_s4(self):
        subs = all_subgroups(symmetric_group(4))
        assert len(subs) == 30
        assert sum(1 for s in subs if s.is_normal()) == 4  # 1, V4, A4, S4

    def test_all_subgroups_unchanged_on_kernel_bijection_corpus(self):
        from cocycle.suites import kernel_bijection_corpus

        def seed_combinations(g):
            # the search all_subgroups used to run: every set of at most 3 seeds
            found = {}
            for size in range(4):
                for seeds in itertools.combinations(range(g.order), size):
                    members = g.generated_subgroup(seeds)
                    found.setdefault(members, Subgroup(g, members))
            return sorted(found.values(), key=lambda s: (s.order, s.members))

        for _, parent in kernel_bijection_corpus():
            assert all_subgroups(parent.base) == seed_combinations(parent.base)

    def test_subgroup_as_group(self):
        g = symmetric_group(3)
        a3 = Subgroup.from_members(g, [a for a in g.elements() if perm_sign(g.perms[a]) == 1])
        h, embed = subgroup_as_group(a3)
        assert h.order == 3
        for i in range(3):
            for j in range(3):
                assert embed[h.mul(i, j)] == g.mul(embed[i], embed[j])


class TestHoms:
    def test_hom_validation(self):
        z2, z4 = cyclic_group(2), cyclic_group(4)
        hom = GroupHom.make(z2, z4, (0, 2))
        assert hom.kernel().order == 1
        with pytest.raises(ValueError):
            GroupHom.make(z2, z4, (0, 1))

    @pytest.mark.parametrize("image, bad", [((0, 4), 4), ((0, -2), -2), ((7, -1), 7)])
    def test_make_names_the_first_index_out_of_range(self, image, bad):
        with pytest.raises(ValueError, match=rf"hom image entry {bad} is not .* range\(4\)"):
            GroupHom.make(cyclic_group(2), cyclic_group(4), image)

    def test_coprime_orders(self):
        homs = enumerate_homs(cyclic_group(2), cyclic_group(3))
        assert len(homs) == 1

    def test_z2_to_s2(self):
        homs = enumerate_homs(cyclic_group(2), symmetric_group(2))
        assert len(homs) == 2

    def test_z6_to_s3(self):
        homs = enumerate_homs(cyclic_group(6), symmetric_group(3))
        assert len(homs) == 6

    def test_all_listed_maps_are_homs_and_distinct(self):
        src, tgt = cyclic_group(6), symmetric_group(3)
        homs = enumerate_homs(src, tgt)
        seen = set()
        for h in homs:
            assert h.image not in seen
            seen.add(h.image)
            for a in src.elements():
                for b in src.elements():
                    assert h.image[src.mul(a, b)] == tgt.mul(h.image[a], h.image[b])

    def test_size_limit(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_MAX_CANDIDATES", 10)
        with pytest.raises(SizeLimit):
            enumerate_homs(cyclic_group(6), symmetric_group(4))

    def test_noncyclic_source_against_raw_map_count(self):
        # independent oracle: filter all |T|^|S| maps for the hom law
        import itertools

        src = direct_product(cyclic_group(2), cyclic_group(2))
        tgt = symmetric_group(3)
        brute = 0
        for image in itertools.product(range(tgt.order), repeat=src.order):
            if image[src.identity] != tgt.identity:
                continue
            if all(
                image[src.mul(a, b)] == tgt.mul(image[a], image[b])
                for a in src.elements()
                for b in src.elements()
            ):
                brute += 1
        assert len(enumerate_homs(src, tgt)) == brute == 10


class TestHomsUpToConjugacy:
    def test_z2_s2(self):
        reps = homs_up_to_conjugacy(cyclic_group(2), symmetric_group(2))
        assert len(reps) == 2

    def test_z2_s3(self):
        reps = homs_up_to_conjugacy(cyclic_group(2), symmetric_group(3))
        assert len(reps) == 2

    def test_z3_s3(self):
        reps = homs_up_to_conjugacy(cyclic_group(3), symmetric_group(3))
        assert len(reps) == 2

    def test_orbits_partition(self):
        src, tgt = cyclic_group(6), symmetric_group(3)
        all_homs = enumerate_homs(src, tgt)
        reps = homs_up_to_conjugacy(src, tgt)
        orbits = []
        for rep in reps:
            orbit = {tuple(tgt.conj(s, x) for x in rep.image) for s in tgt.elements()}
            orbits.append(orbit)
        union = set().union(*orbits)
        assert union == {h.image for h in all_homs}
        assert sum(len(o) for o in orbits) == len(all_homs)

    def test_representative_is_lex_least(self):
        reps = homs_up_to_conjugacy(cyclic_group(2), symmetric_group(3))
        tgt = symmetric_group(3)
        for rep in reps:
            orbit = {tuple(tgt.conj(s, x) for x in rep.image) for s in tgt.elements()}
            assert rep.image == min(orbit)


class TestQuotient:
    def test_s3_mod_a3(self):
        g = symmetric_group(3)
        a3 = Subgroup.from_members(
            g, [a for a in g.elements() if perm_sign(g.perms[a]) == 1]
        )
        q, proj = quotient_group(g, a3)
        assert q.order == 2
        assert proj.kernel().members == a3.members
        assert proj.is_surjective()

    def test_z4_mod_2(self):
        g = cyclic_group(4)
        q, proj = quotient_group(g, Subgroup.from_members(g, [0, 2]))
        assert q.order == 2
        assert proj(1) != q.identity

    def test_s4_mod_v4_is_s3(self):
        g = symmetric_group(4)
        v4_members = [
            i for i, p in enumerate(g.perms) if perm_cycle_type(p) in ((2, 2), (1, 1, 1, 1))
        ]
        v4 = Subgroup.from_members(g, v4_members)
        q, proj = quotient_group(g, v4)
        assert q.order == 6
        assert oracle.find_isomorphism(q, symmetric_group(3)) is not None

    def test_not_normal(self):
        g = symmetric_group(3)
        c2 = Subgroup.from_members(g, g.generated_subgroup([1]))
        assert c2.order == 2
        with pytest.raises(NotNormal):
            quotient_group(g, c2)


class TestStructure:
    def test_generators_greedy_deterministic(self):
        g = symmetric_group(3)
        assert g.generators() == g.generators()
        span = g.generated_subgroup(g.generators())
        assert len(span) == g.order

    def test_generators_follow_the_least_index_rule(self):
        # each generator is the least index outside the span of the ones before it
        groups = [cyclic_group(1), cyclic_group(12), symmetric_group(4), dihedral_group(6)]
        groups += [quaternion_group(), direct_product(symmetric_group(3), cyclic_group(2))]
        for g in groups:
            gens, span = [], {g.identity}
            while len(span) < g.order:
                gens.append(min(set(g.elements()) - span))
                span = set(g.generated_subgroup(gens))
            assert g.generators() == tuple(gens)

    def test_short_generators_stop_at_a_generating_element(self, monkeypatch):
        g = cyclic_group(1000)
        calls, listed = [], []
        join, powers = FiniteGroup.generated_subgroup, groups._powers
        monkeypatch.setattr(
            FiniteGroup, "generated_subgroup", lambda self, seeds: calls.append(1) or join(self, seeds)
        )
        monkeypatch.setattr(groups, "_powers", lambda group, x: listed.append(x) or powers(group, x))
        assert g.short_generators() == (1,)
        # the first step's join is <1>, the power list of 1; trying the 14 other
        # nontrivial cyclic subgroups would take 1,325 more products
        assert len(calls) == 0 and listed == [1]

    def test_short_generators_max_span(self):
        # the largest join wins each step, the least index on ties
        assert symmetric_group(4).short_generators() == (9, 1)
        assert symmetric_group(5).short_generators() == (27, 6)
        assert dihedral_group(100).short_generators() == (1, 100)
        assert direct_product(quaternion_group(), cyclic_group(2)).short_generators() == (4, 1, 8)
        assert symmetric_group(6).short_generators() == (27, 126)
        assert direct_product(symmetric_group(3), symmetric_group(3)).short_generators() == (9, 13)
        assert direct_product(cyclic_group(12), cyclic_group(2)).short_generators() == (2, 1)
        assert direct_product(cyclic_group(10), cyclic_group(100)).short_generators() == (1, 100)
        assert direct_product(dihedral_group(50), cyclic_group(2)).short_generators() == (2, 1, 100)

    def test_short_generators_join_once_per_cyclic_subgroup(self, monkeypatch):
        # D500's 200 generators of <r> join like r, and the first step's joins are the
        # cyclic subgroups themselves: one join, of r with the first reflection
        g = dihedral_group(500)
        calls = []
        join = FiniteGroup.generated_subgroup
        monkeypatch.setattr(
            FiniteGroup, "generated_subgroup", lambda self, seeds: calls.append(seeds) or join(self, seeds)
        )
        assert g.short_generators() == (1, 500)
        assert calls == [[1, 500]]

    def test_word_tree_covers(self):
        g = dihedral_group(4)
        tree = g.word_tree()
        assert len(tree) == g.order - 1
        seen = {g.identity}
        for new, prev, gen in tree:
            assert prev in seen
            assert g.mul(prev, gen) == new
            seen.add(new)

    def test_power_and_order(self):
        g = cyclic_group(6)
        assert g.power(1, 6) == 0
        assert g.power(1, -1) == 5
        assert g.element_order(2) == 3

    def test_find_isomorphism_negative(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert oracle.find_isomorphism(cyclic_group(4), v4) is None
        assert not any(f.is_injective() for f in enumerate_homs(cyclic_group(4), v4))

    def test_associativity_sampled_for_larger_groups(self):
        # order 120 > exhaustive limit: constructor must still accept it
        g = symmetric_group(5)
        assert g.order == 120

    def test_whole_subgroup(self):
        g = cyclic_group(3)
        assert whole_subgroup(g).order == 3

    def test_all_perm_labels_unique(self):
        g = symmetric_group(4)
        assert len(set(g.labels)) == g.order

    def test_memory_env_cap(self, monkeypatch):
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        with pytest.raises(SizeLimit):
            cyclic_group(800)  # 800^2 table over the 1 MB budget
        monkeypatch.delenv("COCYCLE_MAX_MEM_MB")
        assert cyclic_group(800).order == 800

    @pytest.mark.parametrize("raw", [None, "", "lots", "0", "-3"])
    def test_memory_budget_defaults_without_a_positive_cap(self, monkeypatch, raw):
        from cocycle.errors import DEFAULT_MAX_MEM_BYTES, memory_budget_bytes

        if raw is None:
            monkeypatch.delenv("COCYCLE_MAX_MEM_MB", raising=False)
        else:
            monkeypatch.setenv("COCYCLE_MAX_MEM_MB", raw)
        assert memory_budget_bytes() == DEFAULT_MAX_MEM_BYTES == 1 << 30
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "16")
        assert memory_budget_bytes() == 16 << 20

    def test_distinct_sorted_is_np_unique(self):
        from cocycle.groups import distinct_sorted

        rng = np.random.default_rng(0)
        arrays = [np.array([], dtype=np.int64), np.array([7]), rng.integers(0, 5, 40),
                  rng.integers(-3, 9, (6, 7)).astype(np.uint16), np.arange(10)[::-1]]
        for keys in arrays:
            got, want = distinct_sorted(keys), np.unique(keys)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_automorphism_groups(self):
        from cocycle.groups import automorphism_group

        assert len(automorphism_group(cyclic_group(4))) == 2
        assert len(automorphism_group(symmetric_group(3))) == 6
        assert len(automorphism_group(quaternion_group())) == 24
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        autos = automorphism_group(v4)
        assert len(autos) == 6
        for perm in autos:
            for a in v4.elements():
                for b in v4.elements():
                    assert perm[v4.mul(a, b)] == v4.mul(perm[a], perm[b])


def _gl_first_chunk():
    from cocycle.fields import general_linear, make_tower

    tower = make_tower(5, 1, 2)  # GL_2(F_25): 16,384 matrices of 16 * 4 entries a chunk
    return lambda: next(general_linear(tower, 2))


def _h2_oracle():
    from cocycle import exactness, trivial_module

    gamma = cyclic_group(4)  # chunks of 1,024 of the 65,536 raw 2-cochains, 16 * 64 entries each
    pres = trivial_module(gamma, (2,))
    return lambda: exactness.h2_brute_force_order(gamma, pres)


def _etale_validation():
    from cocycle import etale
    from cocycle.fields import make_tower

    # the split algebra k^4 over F_16: 65,536 elements of 4 coordinates
    unit = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    structure = tuple(tuple(unit[i] if i == j else (0,) * 4 for j in range(4)) for i in range(4))
    algebra = etale.EtaleAlgebra(make_tower(2, 4, 2), 4, structure, (1,) * 4, unit, ())
    return lambda: etale._with_validation(algebra)


class TestProductChunks:
    """``groups.product_chunks``, the one product-order stream of the package."""

    RADICES = [(), (1,), (0,), (6,), (3, 0, 2), (1, 1, 1), (2, 3, 4), (5, 1, 3, 2)]
    RADICES += [tuple(np.random.default_rng(s).integers(1, 5, s % 5 + 1).tolist()) for s in range(6)]

    @pytest.mark.parametrize("radices", RADICES, ids=str)
    @pytest.mark.parametrize("chunk", [1, 10, 37, 1 << 20])
    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_product_order_in_equal_chunks(self, monkeypatch, radices, chunk, width):
        monkeypatch.setattr(groups, "ENGINE_CHUNK", chunk)
        chunks = list(groups.product_chunks(radices, width, "probe"))
        want = list(itertools.product(*map(range, radices)))
        rows = max(1, chunk // width)
        assert [len(ranks) for ranks, _ in chunks[:-1]] == [rows] * (len(chunks) - 1)
        assert all(len(ranks) == len(digits) and 0 < len(ranks) <= rows for ranks, digits in chunks)
        ranks = [int(r) for ranks, _ in chunks for r in ranks]
        assert ranks == list(range(len(want)))
        assert [tuple(row) for _, digits in chunks for row in digits.tolist()] == want
        assert all(digits.shape[1] == len(radices) for _, digits in chunks)

    def test_empty_product_is_one_row_and_a_zero_radix_none(self):
        [(ranks, digits)] = groups.product_chunks((), 4, "probe")
        assert ranks.tolist() == [0] and digits.shape == (1, 0)
        assert list(groups.product_chunks((4, 0), 4, "probe")) == []

    def test_chunk_is_sized_before_it_is_allocated(self, monkeypatch):
        # 1,024 rows of width 1,024 are 8 MiB, over a 1 MiB budget
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        stream = groups.product_chunks((2,) * 30, 1024, "probe stream")
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match="^probe stream needs 8388608 bytes"):
                next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "8")
        assert next(groups.product_chunks((2,) * 30, 1024, "probe"))[1].shape == (1024, 30)

    @pytest.mark.parametrize(
        "build,budget_mb,what",
        [
            (_gl_first_chunk, 4, "matrix scan chunk"),
            (_h2_oracle, 4, "raw 2-cochain chunk"),
            (_etale_validation, 1, "algebra element chunk"),
        ],
        ids=["general_linear", "h2_brute_force_order", "etale validation"],
    )
    def test_sites_check_their_chunk_before_allocating(self, monkeypatch, build, budget_mb, what):
        # each site's first chunk is over the budget
        call = build()
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", str(budget_mb))
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit, match=f"^{what} needs"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _relabelled(group, seed):
    """An isomorphic copy whose element x is renumbered p[x], the identity off 0."""
    p = np.random.default_rng(seed).permutation(group.order)
    inv = np.argsort(p)
    return make_group(p[group.table[np.ix_(inv, inv)].astype(np.int64)])


def _in_s4(select):
    s4 = symmetric_group(4)
    return subgroup_as_group(Subgroup.from_members(s4, select(s4)))[0]


def _quotient(g, members):
    return quotient_group(g, Subgroup.from_members(g, members))[0]


_S4_PERM = symmetric_group(4).perms.index  # the index of a permutation tuple in S4
WALK_GROUPS = {
    **{f"Z{n}": lambda n=n: cyclic_group(n) for n in (1, 2, 3, 6, 12, 255, 256, 300, 1000)},
    **{f"D{n}": lambda n=n: dihedral_group(n) for n in (1, 2, 3, 4, 5, 8)},
    **{f"S{m}": lambda m=m: symmetric_group(m) for m in (1, 2, 3, 4, 5)},
    "Q8": quaternion_group,
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "D4xZ3": lambda: direct_product(dihedral_group(4), cyclic_group(3)),
    "S3xQ8": lambda: direct_product(symmetric_group(3), quaternion_group()),
    "A4 in S4": lambda: _in_s4(lambda s4: [g for g in s4.elements() if perm_sign(s4.perms[g]) == 1]),
    "D4 in S4": lambda: _in_s4(
        lambda s4: oracle.closure(s4, [_S4_PERM((1, 2, 3, 0)), _S4_PERM((2, 1, 0, 3))])
    ),
    "S4/V4": lambda: _quotient(
        symmetric_group(4),
        [g for g, p in enumerate(symmetric_group(4).perms) if perm_cycle_type(p) in {(1,) * 4, (2, 2)}],
    ),
    "D4/Z2": lambda: _quotient(dihedral_group(4), [0, 2]),
    "Z7 from a list": lambda: make_group([[(a + b) % 7 for b in range(7)] for a in range(7)]),
    "S5 relabelled": lambda: _relabelled(symmetric_group(5), 5),
    "D4xZ3 relabelled": lambda: _relabelled(direct_product(dihedral_group(4), cyclic_group(3)), 12),
}


@pytest.fixture(scope="module", params=list(WALK_GROUPS), ids=list(WALK_GROUPS))
def walk_group(request):
    return WALK_GROUPS[request.param]()


class TestWalk:
    """Generating sets, word trees, closures, orders and powers against the
    scalar walks of ``engine_oracle``, on 29 groups from every constructor
    (cyclic, dihedral, symmetric, quaternion, products, subgroups, quotients,
    a list table) and two relabelled copies with the identity off index 0."""

    def test_corpus(self):
        assert len(WALK_GROUPS) == 31
        assert WALK_GROUPS["S5 relabelled"]().identity != 0
        assert WALK_GROUPS["D4xZ3 relabelled"]().identity != 0

    def test_generators(self, walk_group):
        assert walk_group.generators() == oracle.greedy_generators(walk_group)

    def test_short_generators(self, walk_group):
        assert walk_group.short_generators() == oracle.max_span_generators(walk_group)

    def test_word_tree(self, walk_group):
        assert walk_group.word_tree() == oracle.word_tree(walk_group, walk_group.generators())

    @staticmethod
    def probes(g):
        """Every element of a group of order <= 128, else the generators and 24 others."""
        if g.order <= 128:
            return list(g.elements())
        rng = np.random.default_rng(g.order)
        return sorted({*g.generators(), *rng.choice(g.order, 24, replace=False).tolist()})

    def test_generated_subgroup(self, walk_group):
        g = walk_group
        for x in self.probes(g):
            assert g.generated_subgroup([x]) == oracle.closure(g, [x])
        rng = np.random.default_rng(g.order + 1)
        pairs = list(zip(g.generators(), g.generators()[1:])) + rng.integers(g.order, size=(24, 2)).tolist()
        for pair in pairs:
            assert g.generated_subgroup(pair) == oracle.closure(g, pair)

    def test_element_order_and_power(self, walk_group):
        g = walk_group
        for a in self.probes(g):
            n = oracle.element_order(g, a)
            assert g.element_order(a) == n
            for k in (-1, 0, n, n + 1, g.order, g.order + 1):
                assert g.power(a, k) == oracle.power(g, a, k), (a, k)
