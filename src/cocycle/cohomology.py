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

import bisect
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BijectionFailure, MatchFailure, NotStable, check_buffer
from .groups import FiniteGroup, GroupHom, Subgroup, element_indices, subgroup_as_group
from .groups import _horner, coboundary_classes, crossed_homs, first_violation


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
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"action entries must be integers, got dtype {arr.dtype}")
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
        if not (0 <= g < self.gamma.order and 0 <= a < self.base.order):
            element_indices((g,), self.gamma.order, "gamma element")
            element_indices((a,), self.base.order, "base element")
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
        image = element_indices(gen_images[g], base.order, f"generator {g}'s image entry")
        if len(image) != base.order:
            raise ValueError(f"generator {g}'s image has {len(image)} entries, not {base.order}")
        action[g] = image
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
    inverting, ident = set(inverting_gens), np.arange(base.order)
    images = {g: (base._inv if g in inverting else ident) for g in gens}
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
    values = np.array(element_indices(values, parent.base.order, "cocycle value"), dtype=np.intp)
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
    parent, base = alpha.parent, alpha.parent.base
    (a,) = element_indices([a], base.order, "coboundary element")
    moved = base.table[base.table[base._inv[a], list(alpha.values)], parent.action[:, a]]
    return Cocycle(parent, tuple(moved.tolist()))


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


class ClassMap(Mapping):
    """Read-only map from each enumerated cocycle's value tuple to its class index.

    Backed by ``rows``, the value rows (read-only, n x |gamma|, lexicographic),
    and ``index``, each row's class. A cocycle is determined by its values on
    ``gamma.short_generators()``, so :meth:`positions` finds rows in bulk by
    the key ``sum_j alpha(s_j) |base|^j`` (``groups._horner``), and a scalar
    lookup is a batch of one; the sorted keys are built on first use.
    """

    __slots__ = ("rows", "index", "_parent", "_sorted")

    def __init__(self, parent: GammaGroup, rows: np.ndarray, index: np.ndarray):
        rows.setflags(write=False)
        self.rows, self.index, self._parent = rows, index, parent
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        return _horner(rows.T[list(self._parent.gamma.short_generators())], self._parent.base.order)

    def positions(self, rows) -> np.ndarray:
        """Position in ``self.rows`` of each of ``rows``; ValueError if one is absent."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.rows.shape[1]:
            raise ValueError(f"rows must have shape (m, {self.rows.shape[1]})")
        if self._sorted is None:
            keys = self._keys(self.rows)
            by_key = np.argsort(keys)
            self._sorted = keys[by_key], by_key
        keys, by_key = self._sorted
        # the one row that can hold each key; a row not enumerated differs from it
        at = by_key.take(np.searchsorted(keys, self._keys(rows)), mode="clip")
        if not (self.rows[at] == rows).all():
            raise ValueError("cocycle not in the enumerated set")
        return at

    def __getitem__(self, key: tuple[int, ...]) -> int:
        try:
            return int(self.index[self.positions([key])[0]])
        except (TypeError, ValueError):  # absent or malformed, as for a dict
            raise KeyError(key) from None

    def __iter__(self):
        return map(tuple, self.rows.tolist())

    def items(self):
        return zip(self, self.index.tolist())

    def __len__(self) -> int:
        return len(self.rows)


class CocycleRows(Sequence):
    """Read-only sequence of cocycles backed by ``rows``, their value rows
    (read-only, n x |gamma|). Reading element i builds
    ``Cocycle(parent, tuple(rows[i]))``; a slice is a tuple of cocycles, and
    so is ``self + a_tuple``.
    """

    __slots__ = ("rows", "_parent")

    def __init__(self, parent: GammaGroup, rows: np.ndarray):
        rows.setflags(write=False)
        self.rows, self._parent = rows, parent

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(CocycleRows(self._parent, self.rows[i]))
        return Cocycle(self._parent, tuple(self.rows[i].tolist()))

    def __iter__(self):
        step = max(1, (1 << 16) // self.rows.shape[1])  # one list of every row raises the peak
        for lo in range(0, len(self.rows), step):
            for values in map(tuple, self.rows[lo : lo + step].tolist()):
                yield Cocycle(self._parent, values)

    def __len__(self) -> int:
        return len(self.rows)

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + other


class H1Set:
    """Pointed set of cocycle classes.

    ``classes`` is a :class:`CocycleRows` of the lexicographically least
    cocycle of each class, in lexicographic order, over the array
    ``classes.rows`` (a sequence of cocycles passed in is converted to it);
    ``class_of`` is a :class:`ClassMap` from every
    enumerated cocycle's value tuple to its class index, over the arrays
    ``class_of.rows`` and ``class_of.index`` (a dict passed in is converted
    to them); :meth:`class_indices` looks up many value rows at once;
    ``distinguished`` is the trivial class; ``members[i]`` lists the value
    tuples of class i in lexicographic order.
    """

    __slots__ = ("parent", "classes", "class_of", "distinguished", "_members")

    def __init__(
        self,
        parent: GammaGroup,
        classes: Sequence[Cocycle],
        class_of: Mapping[tuple[int, ...], int],
        distinguished: int,
    ):
        if not isinstance(classes, CocycleRows):
            rows = np.array([c.values for c in classes], dtype=np.intp)
            classes = CocycleRows(parent, rows.reshape(len(classes), parent.gamma.order))
        if not isinstance(class_of, ClassMap):
            keys = sorted(class_of)
            rows = np.array(keys, dtype=np.intp).reshape(len(keys), parent.gamma.order)
            class_of = ClassMap(parent, rows, np.array([class_of[k] for k in keys], dtype=np.intp))
        self.parent = parent
        self.classes = classes
        self.class_of = class_of
        self.distinguished = distinguished
        self._members: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def members(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        if self._members is None:
            index = self.class_of.index
            rows = list(map(tuple, self.class_of.rows[np.argsort(index, kind="stable")].tolist()))
            ends = np.cumsum(np.bincount(index, minlength=self.order)).tolist()
            self._members = tuple(tuple(rows[lo:hi]) for lo, hi in zip([0, *ends], ends))
        return self._members

    @property
    def order(self) -> int:
        return len(self.classes)

    @property
    def n_cocycles(self) -> int:
        return len(self.class_of)

    def class_index(self, cocycle: Cocycle) -> int:
        return int(self.class_indices([cocycle.values])[0])

    def class_indices(self, rows) -> np.ndarray:
        """The class of each value row (m x |gamma|); ValueError on a row not enumerated."""
        return self.class_of.index[self.class_of.positions(rows)]

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
    trivial = (base.identity,) * gamma.order
    at = bisect.bisect_left(vals, trivial, key=lambda row: tuple(row.tolist()))  # rows are sorted
    # reps are increasing, so when every row is its own class they are all of vals
    classes = CocycleRows(parent, vals if len(reps) == len(vals) else vals[reps])
    return H1Set(parent, classes, ClassMap(parent, vals, class_index), int(class_index[at]))


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


def check_stable(parent: GammaGroup, sub: Subgroup) -> None:
    """Raise NotStable with a witness unless gamma maps the subgroup into itself."""
    if sub.parent is not parent.base:
        raise ValueError("subgroup must live in the parent's base group")
    bad = sub.stray(parent.action)
    if bad is not None:
        raise NotStable(bad[1], bad[0])


def restrict_to_subgroup(
    parent: GammaGroup, sub: Subgroup
) -> tuple[GammaGroup, EquivariantHom]:
    """Action restricted to a stable subgroup, relabeled as its own group.

    Returns the restricted GammaGroup plus the inclusion as an equivariant
    hom. Raises NotStable with a witness when the subgroup is not preserved.
    """
    check_stable(parent, sub)
    sub_group, embed = subgroup_as_group(sub)
    action = sub.position()[parent.action[:, list(embed)]]
    restricted = GammaGroup(parent.gamma, sub_group, action)
    inclusion = GroupHom.make(sub_group, parent.base, embed)
    return restricted, EquivariantHom.make(restricted, parent, inclusion)


def induced_map(f: EquivariantHom, h1_source: H1Set, h1_target: H1Set) -> tuple[int, ...]:
    """Class map [alpha] -> [f o alpha]; index i gives the target class of source class i.

    Every enumerated source cocycle is pushed through f in one gather and
    looked up in the target. One that lands outside the target's cocycles,
    or a class whose members land in two target classes, raises MatchFailure.
    """
    if h1_source.parent is not f.source or h1_target.parent is not f.target:
        raise ValueError("H1 sets must belong to the hom's source and target")
    source = h1_source.class_of
    try:
        landed = h1_target.class_indices(np.asarray(f.hom.image, dtype=np.intp)[source.rows])
    except ValueError:
        raise MatchFailure("induced map left the target cocycles (convention bug)") from None
    result = np.full(h1_source.order, -1, dtype=np.intp)
    result[source.index] = landed
    if (result[source.index] != landed).any():
        raise MatchFailure("induced map not constant on a class (convention bug)")
    return tuple(result.tolist())


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
