"""Reference crossed-hom enumeration: the full-pair engine the package used to run.

Each routine assigns values to the greedy ``generators()``, extends along
``word_tree()`` and checks the cocycle (or hom) law on all |gamma|^2 pairs;
classes come from one coboundary orbit per lexicographically least
cocycle, keyed by full value tuples. ``tests/test_engine.py`` compares the
package against these results exactly.

The orbit routines at the end are the per-element loops that cosets,
fixed-coset orbits, Shapiro cosets, quotient sections, principal-space
isomorphisms, étale orbits and abelian coordinates used to run before
``groups.orbit_partition`` and one-gather coordinates replaced them;
``tests/test_orbits.py`` compares the package against them field by field.

The walks at the very end build closures, generating sets, word trees,
element orders and powers one ``group.mul`` product at a time, as the
package did before one breadth-first walk and one power list replaced its
loops; ``tests/test_groups.py::TestWalk`` compares the package against them.
"""

from __future__ import annotations

import itertools

import numpy as np

from cocycle.cohomology import Cocycle, GammaGroup, H1Set, restrict_to_subgroup, trivial_action
from cocycle.groups import FiniteGroup, GroupHom, Subgroup
from smith_oracle import cokernel_invariant_factors


def _partition(parent: GammaGroup, survivor_keys: set[tuple[int, ...]]) -> H1Set:
    base = parent.base
    table = base.table
    inv_arr = np.array([base.inv(a) for a in range(base.order)])
    act_t = parent.action.T  # [a, g] = a^g
    classes: list[Cocycle] = []
    class_of: dict[tuple[int, ...], int] = {}
    for key in sorted(survivor_keys):
        if key in class_of:
            continue
        rep_arr = np.asarray(key)
        orbit = table[table[inv_arr[:, None], rep_arr[None, :]], act_t]
        ci = len(classes)
        for row in orbit:
            k2 = tuple(int(v) for v in row)
            if k2 not in survivor_keys:
                raise AssertionError("coboundary transform left the cocycle set")
            class_of.setdefault(k2, ci)
        classes.append(Cocycle(parent, key))
    distinguished = class_of[(base.identity,) * parent.gamma.order]
    return H1Set(parent, tuple(classes), class_of, distinguished)


def h1(parent: GammaGroup) -> H1Set:
    gamma, base = parent.gamma, parent.base
    ng, na = gamma.order, base.order
    gens = gamma.generators()
    k = len(gens)
    n_cand = na**k
    vals = np.empty((n_cand, ng), dtype=np.int64)
    vals[:, gamma.identity] = base.identity
    idx = np.arange(n_cand)
    for j, g in enumerate(gens):
        vals[:, g] = (idx // na ** (k - 1 - j)) % na
    table = base.table
    act = parent.action
    for new, prev, gen in gamma.word_tree():
        vals[:, new] = table[vals[:, prev], act[prev][vals[:, gen]]]
    ok = np.ones(n_cand, dtype=bool)
    for h in range(ng):
        for g in range(ng):
            ok &= vals[:, gamma.mul(h, g)] == table[vals[:, h], act[h][vals[:, g]]]
    return _partition(parent, {tuple(int(v) for v in row) for row in vals[ok]})


def _images(source: FiniteGroup, target: FiniteGroup, pools, bijective: bool):
    """Generator assignments in product order whose extensions are homs."""
    gens = source.generators()
    tree = source.word_tree()
    for assignment in itertools.product(*pools):
        image = [0] * source.order
        image[source.identity] = target.identity
        gen_img = dict(zip(gens, assignment))
        for new, prev, gen in tree:
            image[new] = target.mul(image[prev], gen_img[gen])
        if bijective and len(set(image)) != source.order:
            continue
        if all(
            image[source.mul(a, b)] == target.mul(image[a], image[b])
            for a in source.elements()
            for b in source.elements()
        ):
            yield tuple(image)


def enumerate_homs(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    pools = [range(target.order)] * len(source.generators())
    images = sorted(_images(source, target, pools, bijective=False))
    return [GroupHom(source, target, img) for img in images]


def homs_up_to_conjugacy(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    homs = enumerate_homs(source, target)
    reps: list[GroupHom] = []
    assigned: set[tuple[int, ...]] = set()
    for hom in homs:
        if hom.image in assigned:
            continue
        assigned |= {tuple(target.conj(s, x) for x in hom.image) for s in target.elements()}
        reps.append(hom)
    return reps


def h1_trivial_action(gamma: FiniteGroup, base: FiniteGroup) -> H1Set:
    survivors = set()
    for rep in homs_up_to_conjugacy(gamma, base):
        for s in range(base.order):
            survivors.add(tuple(base.conj(s, x) for x in rep.image))
    return _partition(trivial_action(gamma, base), survivors)


def _order_pools(g: FiniteGroup, h: FiniteGroup):
    by_order: dict[int, list[int]] = {}
    for b in h.elements():
        by_order.setdefault(h.element_order(b), []).append(b)
    return [by_order.get(g.element_order(x), []) for x in g.generators()]


def automorphism_group(g: FiniteGroup) -> list[tuple[int, ...]]:
    return sorted(_images(g, g, _order_pools(g, g), bijective=True))


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> GroupHom | None:
    if g.order != h.order:
        return None
    if sorted(map(g.element_order, g.elements())) != sorted(map(h.element_order, h.elements())):
        return None
    image = next(_images(g, h, _order_pools(g, h), bijective=True), None)
    return None if image is None else GroupHom(g, h, image)


def symmetric_table(m: int) -> np.ndarray:
    """S_m's table by composing permutation tuples one pair at a time."""
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array(
        [[index[tuple(p[q[i]] for i in range(m))] for q in perms] for p in perms]
    )


def action_is_valid(gamma: FiniteGroup, base: FiniteGroup, action) -> bool:
    """Every row an automorphism and every pair of rows composing."""
    arr = np.asarray(action)
    tbl = base.table
    if not np.array_equal(arr[gamma.identity], np.arange(base.order)):
        return False
    if not np.all(np.sort(arr, axis=1) == np.arange(base.order)):
        return False
    for row in arr:
        if not np.array_equal(row[tbl], tbl[np.ix_(row, row)]):
            return False
    return all(
        np.array_equal(arr[gamma.mul(d, g)], arr[d][arr[g]])
        for d in gamma.elements()
        for g in gamma.elements()
    )


# ---------------------------------------------------------------------------
# orbit loops


def left_cosets(g: FiniteGroup, sub: Subgroup) -> tuple[list[tuple[int, ...]], list[int]]:
    """Left cosets xA, each sorted, in order of their least elements, and the
    index of each element's coset."""
    coset_of = [-1] * g.order
    cosets: list[tuple[int, ...]] = []
    for x in g.elements():
        if coset_of[x] < 0:
            cosets.append(tuple(sorted(g.mul(x, a) for a in sub.members)))
            for y in cosets[-1]:
                coset_of[y] = len(cosets) - 1
    return cosets, coset_of


def fixed_cosets(parent: GammaGroup, sub: Subgroup):
    """(cosets, coset_of, gamma_action, fixed, orbits) of ``exactness.CosetSpace``."""
    b, ng = parent.base, parent.gamma.order
    cosets, coset_of = left_cosets(b, sub)
    gamma_action = [tuple(coset_of[parent.act(g, c[0])] for c in cosets) for g in range(ng)]
    fixed = tuple(
        i for i in range(len(cosets)) if all(gamma_action[g][i] == i for g in range(ng))
    )
    invariants = [c for c in b.elements() if all(parent.act(g, c) == c for g in range(ng))]
    orbits: list[tuple[int, ...]] = []
    assigned: set[int] = set()
    for i in fixed:
        if i in assigned:
            continue
        orbit = set()
        for c in invariants:
            j = coset_of[b.mul(c, cosets[i][0])]
            if j not in fixed:
                raise AssertionError("translation by an invariant left the fixed cosets")
            orbit.add(j)
        orbits.append(tuple(sorted(orbit)))
        assigned |= orbit
    return tuple(cosets), tuple(coset_of), tuple(gamma_action), fixed, tuple(orbits)


def section(parent: GammaGroup, proj, values, greatest: bool) -> list[int]:
    """Least (or greatest) preimage of each value under ``proj``, e at the identity."""
    b, pick = parent.base, max if greatest else min
    return [
        b.identity if g == parent.gamma.identity
        else pick(x for x in range(b.order) if proj.hom(x) == values[g])
        for g in range(parent.gamma.order)
    ]


def shapiro_maps(gamma: FiniteGroup, h_sub: Subgroup, g_action: GammaGroup):
    """The induced maps, lexicographically sorted, and the action rows on their indices."""
    g, ng = g_action.base, gamma.order
    h_pos = {m: i for i, m in enumerate(h_sub.members)}
    coset_rep = [-1] * ng
    reps: list[int] = []
    for s in range(ng):
        if coset_rep[s] >= 0:
            continue
        reps.append(s)
        for m in h_sub.members:
            coset_rep[gamma.mul(m, s)] = s
    rep_col = {r: i for i, r in enumerate(reps)}
    free = np.array(list(itertools.product(range(g.order), repeat=len(reps))), dtype=np.int64)
    maps_arr = np.empty((len(free), ng), dtype=np.int64)
    for s in range(ng):
        r = coset_rep[s]
        l = next(m for m in h_sub.members if gamma.mul(m, r) == s)  # s = l * r
        maps_arr[:, s] = g_action.action[h_pos[l]][free[:, rep_col[r]]]
    maps = sorted(map(tuple, maps_arr.tolist()))
    where = {row: i for i, row in enumerate(maps)}
    action = [
        [where[tuple(row[gamma.mul(t, s)] for t in range(ng))] for row in maps] for s in range(ng)
    ]
    return tuple(maps), action


def phs_isomorphism(p, q) -> int | None:
    """First point y of q that p's base point can map to under an isomorphism."""
    base, gamma = p.parent.base, p.parent.gamma
    transporter = [0] * p.n_points
    for g in range(base.order):
        transporter[p.g_action[g][0]] = g
    for y in range(q.n_points):
        theta = [q.g_action[transporter[x]][y] for x in range(p.n_points)]
        if all(
            theta[p.gamma_action[s][x]] == q.gamma_action[s][theta[x]]
            for s in range(gamma.order)
            for x in range(p.n_points)
        ):
            return y
    return None


def etale_orbits(sym: FiniteGroup, image: Subgroup, m: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of a subgroup of S_m on 0..m-1 by breadth-first search."""
    seen: set[int] = set()
    orbits = []
    for start in range(m):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for g in image.members:
                nxt = sym.perms[g][point]
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def module_bridge(parent: GammaGroup, sub: Subgroup, generators: list[int]):
    """(factors, matrices, to_coords, from_coords) of ``exactness.presentation_of_subgroup``
    on the given generator elements of ``sub``, as parent element indices.

    The factors come from a Smith form of the relations among ``generators()``;
    the generators are checked to have those orders and to reach every member
    exactly once over the exponent box, so any valid choice is accepted.
    """
    restricted, inclusion = restrict_to_subgroup(parent, sub)
    group = restricted.base
    embed = inclusion.hom.image
    local_of = {x: i for i, x in enumerate(embed)}

    def image_of(gens, exps) -> int:
        x = group.identity
        for g, e in zip(gens, exps):
            x = group.mul(x, group.power(g, e))
        return x

    factors: list[int] = []
    if group.order > 1:
        gens = list(group.generators())
        orders = [group.element_order(g) for g in gens]
        r = len(gens)
        relations = [[orders[j] if i == j else 0 for j in range(r)] for i in range(r)]
        for exps in itertools.product(*[range(o) for o in orders]):
            if any(exps) and image_of(gens, exps) == group.identity:
                relations.append(list(exps))
        rel_matrix = [[rel[i] for rel in relations] for i in range(r)]
        factors, _, _ = cokernel_invariant_factors(rel_matrix, r)
    gen_elements = [local_of[x] for x in generators]
    if [group.element_order(g) for g in gen_elements] != list(factors):
        raise ValueError("a generator's order differs from its invariant factor")
    from_local = {
        vec: image_of(gen_elements, vec) for vec in itertools.product(*[range(f) for f in factors])
    }
    if len(set(from_local.values())) != group.order:
        raise ValueError("the generators do not reach each member of the subgroup once")
    to_local = {x: vec for vec, x in from_local.items()}
    k = len(factors)
    matrices = []
    for g in range(parent.gamma.order):
        cols = [to_local[restricted.act(g, gen)] for gen in gen_elements]
        matrices.append(tuple(tuple(cols[t][s] for t in range(k)) for s in range(k)))
    to_coords = {embed[x]: vec for x, vec in to_local.items()}
    from_coords = {vec: embed[x] for vec, x in from_local.items()}
    return tuple(factors), tuple(matrices), to_coords, from_coords


# ---------------------------------------------------------------------------
# generator walks, one group.mul product at a time


def closure(group: FiniteGroup, seeds) -> tuple[int, ...]:
    """Sorted members of the subgroup generated by ``seeds``: everything the
    identity reaches by right multiplication by seeds."""
    members, todo = {group.identity}, [group.identity]
    while todo:
        x = todo.pop()
        for s in seeds:
            y = group.mul(x, s)
            if y not in members:
                members.add(y)
                todo.append(y)
    return tuple(sorted(members))


def greedy_generators(group: FiniteGroup) -> tuple[int, ...]:
    """Each generator the least element outside the span of those before it."""
    gens: list[int] = []
    while len(span := closure(group, gens)) < group.order:
        gens.append(min(set(group.elements()) - set(span)))
    return tuple(gens)


def max_span_generators(group: FiniteGroup) -> tuple[int, ...]:
    """Each generator the element whose join with those before it is largest,
    the least such element on ties."""
    gens: list[int] = []
    while len(closure(group, gens)) < group.order:
        gens.append(max(group.elements(), key=lambda x: (len(closure(group, gens + [x])), -x)))
    return tuple(gens)


def word_tree(group: FiniteGroup, gens) -> list[tuple[int, int, int]]:
    """(new, prev, gen) with new = prev * gen, level by level from the identity,
    each level's elements in the order found, generators in the given order."""
    seen, level, tree = {group.identity}, [group.identity], []
    while level:
        found = []
        for prev in level:
            for g in gens:
                new = group.mul(prev, g)
                if new not in seen:
                    seen.add(new)
                    tree.append((new, prev, g))
                    found.append(new)
        level = found
    return tree


def element_order(group: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != group.identity:
        k, x = k + 1, group.mul(x, a)
    return k


def power(group: FiniteGroup, a: int, k: int) -> int:
    """a^k by |k| products; a^-1 is the element b with a * b = e."""
    if k < 0:
        a, k = next(b for b in group.elements() if group.mul(a, b) == group.identity), -k
    x = group.identity
    for _ in range(k):
        x = group.mul(x, a)
    return x
