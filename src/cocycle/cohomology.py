"""Groups with an action of a finite group, 1-cocycles, and H0/H1.

Convention, centralized here and used everywhere else in the package:

* the action is written exponentially, ``a^g = act(g, a)``, and composes as
  a homomorphism into the automorphism group: ``(a^g)^h = a^(hg)``;
* the cocycle law is ``alpha(hg) = alpha(h) * alpha(g)^h``
  (:func:`is_cocycle`);
* two cocycles are equivalent when ``alpha(g) = a^-1 * beta(g) * a^g`` for
  some base element a (:func:`coboundary_transform`).

These three formulas are mutually consistent: the transform preserves the
law for every (also nonabelian) acting group, equivalence is an honest
equivalence relation, and descent maps ``g -> b^-1 * b^g`` are cocycles.
:func:`h1` runs the crossed-hom engine of :mod:`cocycle.groups` on these
formulas. It raises MatchFailure when a coboundary orbit leaves the
enumerated cocycle set, so any convention drift fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BijectionFailure, MatchFailure, NotStable, check_buffer
from .groups import FiniteGroup, GroupHom, Subgroup, subgroup_as_group
from .groups import coboundary_classes, crossed_homs, first_violation


class GammaGroup:
    """A base group together with an action of ``gamma`` by automorphisms.

    ``action[g, a]`` is a^g. Validated on construction: the identity acts
    trivially, every row is a bijection, and each generator s of
    ``gamma.short_generators()`` has a row f with f(at) = f(a) f(t) for every
    a and every t in ``base.generators()``, and ``action[d*s] =
    action[d][action[s]]`` for all d. Such an f is a homomorphism, by
    induction on the word length of the right factor, so each generator row
    is an automorphism; by induction on word length in gamma every row is
    one and all rows compose.
    """

    __slots__ = ("gamma", "base", "action")

    def __init__(self, gamma: FiniteGroup, base: FiniteGroup, action):
        arr = np.asarray(action)
        if arr.shape != (gamma.order, base.order):
            raise ValueError(
                f"action must have shape ({gamma.order}, {base.order}), got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() >= base.order):
            raise ValueError("action entries must be base element indices")
        arr = arr.astype(base.table.dtype, copy=True)
        idx = np.arange(base.order)
        if not np.array_equal(arr[gamma.identity], idx):
            raise ValueError("identity of gamma must act trivially")
        if not np.all(np.sort(arr, axis=1) == idx[None, :]):
            raise ValueError("some action row is not a bijection")
        tbl, moves = base.table, list(base.generators())
        for s in gamma.short_generators():
            row = arr[s]
            if not np.array_equal(row[tbl[:, moves]], tbl[row[:, None], row[moves]]):
                raise ValueError(f"action of gamma element {s} is not multiplicative")
            bad = np.flatnonzero(np.any(arr[gamma.table[:, s]] != arr[:, row], axis=1))
            if bad.size:
                raise ValueError(f"action rows do not compose: gamma pair ({bad[0]}, {s})")
        arr.setflags(write=False)
        self.gamma = gamma
        self.base = base
        self.action = arr

    def act(self, g: int, a: int) -> int:
        """a^g."""
        return int(self.action[g, a])

    def __repr__(self) -> str:
        return f"GammaGroup(|gamma|={self.gamma.order}, |base|={self.base.order})"


def trivial_action(gamma: FiniteGroup, base: FiniteGroup) -> GammaGroup:
    action = np.tile(np.arange(base.order), (gamma.order, 1))
    return GammaGroup(gamma, base, action)


def action_from_gen_images(
    gamma: FiniteGroup, base: FiniteGroup, gen_images: dict[int, tuple[int, ...]]
) -> GammaGroup:
    """Extend automorphisms assigned to gamma's greedy generators to all of gamma."""
    gens = gamma.generators()
    if set(gen_images) != set(gens):
        raise ValueError(f"gen_images must assign exactly the generators {gens}")
    action = np.empty((gamma.order, base.order), dtype=np.int64)
    action[gamma.identity] = np.arange(base.order)
    for g in gens:
        action[g] = np.asarray(gen_images[g])
    for new, prev, gen in gamma.word_tree():
        action[new] = action[prev][action[gen]]
    return GammaGroup(gamma, base, action)


def conjugation_action(gamma: FiniteGroup, base: FiniteGroup, hom: GroupHom) -> GammaGroup:
    """gamma acts on base through a hom c: gamma -> base, by a^g = c(g) a c(g)^-1."""
    if hom.source is not gamma or hom.target is not base:
        raise ValueError("hom must map gamma into base")
    return GammaGroup(gamma, base, base.conjugation()[list(hom.image)])


def inversion_action(gamma: FiniteGroup, base: FiniteGroup, inverting_gens=None) -> GammaGroup:
    """Designated gamma generators act on an abelian base by inversion."""
    if not base.is_abelian():
        raise ValueError("inversion is an automorphism only for abelian bases")
    gens = gamma.generators()
    if inverting_gens is None:
        inverting_gens = gens
    inv_perm = tuple(base.inv(a) for a in range(base.order))
    ident = tuple(range(base.order))
    images = {g: (inv_perm if g in set(inverting_gens) else ident) for g in gens}
    return action_from_gen_images(gamma, base, images)


@dataclass(frozen=True)
class Cocycle:
    """Map gamma -> base satisfying the cocycle law, stored as a value tuple."""

    parent: GammaGroup
    values: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return self.values[g]


def is_cocycle(parent: GammaGroup, values) -> tuple[bool, tuple[int, int] | None]:
    """Check the law on all pairs; returns (ok, first violating pair)."""
    values = np.array([int(v) for v in values], dtype=np.intp)
    if len(values) != parent.gamma.order:
        raise ValueError("values must be defined on all of gamma")
    check_buffer(parent.gamma.order**2, 8, "cocycle law")
    rhs = parent.base.table[values[:, None], parent.action[:, values]]  # alpha(h) * alpha(g)^h
    bad = first_violation(values[parent.gamma.table] == rhs)
    return bad is None, bad


def make_cocycle(parent: GammaGroup, values) -> Cocycle:
    ok, witness = is_cocycle(parent, values)
    if not ok:
        raise ValueError(f"cocycle law fails at pair {witness}")
    return Cocycle(parent, tuple(int(v) for v in values))


def trivial_cocycle(parent: GammaGroup) -> Cocycle:
    return Cocycle(parent, (parent.base.identity,) * parent.gamma.order)


def coboundary_transform(alpha: Cocycle, a: int) -> Cocycle:
    """The equivalent cocycle g -> a^-1 * alpha(g) * a^g."""
    parent = alpha.parent
    base = parent.base
    ainv = base.inv(a)
    values = tuple(
        base.mul(base.mul(ainv, alpha.values[g]), parent.act(g, a))
        for g in range(parent.gamma.order)
    )
    return Cocycle(parent, values)


def cohomologous(alpha: Cocycle, beta: Cocycle) -> int | None:
    """Exhaustive search for a witness a with alpha = (a . beta); None if none."""
    if alpha.parent is not beta.parent:
        raise ValueError("cocycles must share a parent")
    for a in range(alpha.parent.base.order):
        if coboundary_transform(beta, a).values == alpha.values:
            return a
    return None


def h0(parent: GammaGroup) -> Subgroup:
    """Fixed-point subgroup of the base."""
    idx = np.arange(parent.base.order)
    fixed = np.flatnonzero(np.all(parent.action == idx[None, :], axis=0))
    return Subgroup.from_members(parent.base, fixed.tolist())


class H1Set:
    """Pointed set of cocycle classes.

    ``classes`` holds the lexicographically least cocycle of each class, in
    lexicographic order; ``class_of`` maps every enumerated cocycle's value
    tuple to its class index; ``distinguished`` is the trivial class;
    ``members[i]`` lists the value tuples of class i in lexicographic order.
    """

    __slots__ = ("parent", "classes", "class_of", "distinguished", "_members")

    def __init__(
        self,
        parent: GammaGroup,
        classes: tuple[Cocycle, ...],
        class_of: dict[tuple[int, ...], int],
        distinguished: int,
    ):
        self.parent = parent
        self.classes = classes
        self.class_of = class_of
        self.distinguished = distinguished
        self._members: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def members(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        if self._members is None:
            groups: list[list[tuple[int, ...]]] = [[] for _ in self.classes]
            for key, c in self.class_of.items():
                groups[c].append(key)
            self._members = tuple(tuple(sorted(g)) for g in groups)
        return self._members

    @property
    def order(self) -> int:
        return len(self.classes)

    @property
    def n_cocycles(self) -> int:
        return len(self.class_of)

    def class_index(self, cocycle: Cocycle) -> int:
        try:
            return self.class_of[cocycle.values]
        except KeyError:
            raise ValueError("cocycle not in the enumerated set") from None

    def __repr__(self) -> str:
        return f"H1Set({self.order} classes, {self.n_cocycles} cocycles)"


def h1(parent: GammaGroup) -> H1Set:
    """Enumerate all 1-cocycles and partition them into classes.

    Candidates choose values on ``gamma.short_generators()``, extend along
    its word tree via the cocycle law, and survive the law on every pair
    (x, s) with s a generator, which implies it on all pairs; classes are
    coboundary orbits keyed by the values on those generators (see
    :func:`~cocycle.groups.crossed_homs`).
    """
    gamma, base = parent.gamma, parent.base
    vals = crossed_homs(gamma, base, parent.action)
    reps, class_index = coboundary_classes(gamma, base, parent.action, vals)
    keys = list(map(tuple, vals.tolist()))
    class_of = dict(zip(keys, class_index.tolist()))
    classes = tuple(Cocycle(parent, keys[r]) for r in reps.tolist())
    return H1Set(parent, classes, class_of, class_of[(base.identity,) * gamma.order])


def h1_trivial_action(gamma: FiniteGroup, base: FiniteGroup) -> H1Set:
    """H1 for the trivial action: homs gamma -> base modulo conjugation in base,
    which are the cocycles and coboundary classes :func:`h1` finds."""
    return h1(trivial_action(gamma, base))


@dataclass(frozen=True)
class EquivariantHom:
    """Group hom between the bases of two actions of the same gamma."""

    source: GammaGroup
    target: GammaGroup
    hom: GroupHom

    @staticmethod
    def make(source: GammaGroup, target: GammaGroup, hom: GroupHom) -> EquivariantHom:
        if source.gamma is not target.gamma:
            raise ValueError("source and target must share the same gamma group")
        if hom.source is not source.base or hom.target is not target.base:
            raise ValueError("hom must map source base to target base")
        check_buffer(source.action.size, 8, "equivariance law")
        img = np.array(hom.image, dtype=np.intp)
        bad = first_violation(img[source.action] == target.action[:, img])
        if bad is not None:
            g, a = bad
            raise ValueError(f"hom does not commute with the action at (gamma={g}, a={a})")
        return EquivariantHom(source, target, hom)


def restrict_to_subgroup(
    parent: GammaGroup, sub: Subgroup
) -> tuple[GammaGroup, EquivariantHom]:
    """Action restricted to a stable subgroup, relabeled as its own group.

    Returns the restricted GammaGroup plus the inclusion as an equivariant
    hom. Raises NotStable with a witness when the subgroup is not preserved.
    """
    if sub.parent is not parent.base:
        raise ValueError("subgroup must live in the parent's base group")
    bad = sub.stray(parent.action)
    if bad is not None:
        raise NotStable(bad[1], bad[0])
    sub_group, embed = subgroup_as_group(sub)
    action = sub.position()[parent.action[:, list(embed)]]
    restricted = GammaGroup(parent.gamma, sub_group, action)
    inclusion = GroupHom.make(sub_group, parent.base, embed)
    return restricted, EquivariantHom.make(restricted, parent, inclusion)


def induced_map(f: EquivariantHom, h1_source: H1Set, h1_target: H1Set) -> tuple[int, ...]:
    """Class map [alpha] -> [f o alpha]; index i gives the target class of source class i.

    Well-definedness is re-checked by pushing a second member of each class
    through; a mismatch raises MatchFailure.
    """
    if h1_source.parent is not f.source or h1_target.parent is not f.target:
        raise ValueError("H1 sets must belong to the hom's source and target")

    def push(values: tuple[int, ...]) -> int:
        mapped = tuple(f.hom(v) for v in values)
        return h1_target.class_of[mapped]

    result = []
    for members in h1_source.members:
        target_class = push(members[0])
        if len(members) > 1 and push(members[1]) != target_class:
            raise MatchFailure("induced map not constant on a class (convention bug)")
        result.append(target_class)
    return tuple(result)


def kernel_of(class_map: tuple[int, ...], h1_target: H1Set) -> tuple[int, ...]:
    """Source class indices mapping to the target's distinguished class."""
    return tuple(i for i, c in enumerate(class_map) if c == h1_target.distinguished)


def match_blocks(labels, targets, what: str) -> tuple:
    """The one label of each block, checked to be a bijection onto ``targets``.

    ``labels[i]`` holds the labels of block i's members (a whole orbit, or
    the members a caller samples). Raises BijectionFailure, naming ``what``,
    when a block carries several labels, two blocks share one, or the labels
    are not exactly ``targets``.
    """
    found = []
    for i, block in enumerate(labels):
        block = set(block)
        if len(block) != 1:
            raise BijectionFailure(f"{what}: block {i} maps to {sorted(block)}")
        found.append(block.pop())
    if len(set(found)) != len(found):
        raise BijectionFailure(f"{what}: two blocks map to one label")
    if set(found) != set(targets):
        raise BijectionFailure(f"{what}: {len(found)} labels hit, {len(set(targets))} expected")
    return tuple(found)
