"""Reference crossed-hom enumeration: the full-pair engine the package used to run.

Each routine assigns values to the greedy ``generators()``, extends along
``word_tree()`` and checks the cocycle (or hom) law on all |gamma|^2 pairs;
classes come from one coboundary orbit per lexicographically least
cocycle, keyed by full value tuples. ``tests/test_engine.py`` compares the
package against these results exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from cocycle.cohomology import Cocycle, GammaGroup, H1Set, trivial_action
from cocycle.groups import FiniteGroup, GroupHom


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
