"""Finite groups as multiplication tables, with 0-based element indices.

Every table the package derives is sized and filled by :func:`group_table`, and
construction validates the group axioms exactly; associativity by Light's test
over a generating set, in O(n^2) per generator. Named constructions (cyclic,
symmetric, dihedral) emit elements in a documented deterministic order so
downstream fixtures are stable. Hom, automorphism and isomorphism search and
:func:`cocycle.cohomology.h1` run on one engine, :func:`crossed_homs`. Orbits of
a group acting on a finite set, and with them coset representatives, come from one
owner, :func:`orbit_partition`; closures from generators (generated subgroups, word
trees) from one, :func:`_word_tree`; power lists and element orders from one, :func:`_powers`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_GROUP_ORDER,
    MatchFailure,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotNormal,
    SizeLimit,
    check_buffer,
)

#: Array entries held by one chunk of an enumeration, a group table build or
#: the associativity check; :func:`product_chunks` sizes every product-order stream by it.
ENGINE_CHUNK = 1 << 20

Perm = tuple[int, ...]


def _table_dtype(order: int) -> np.dtype:
    if order <= 0xFF:
        return np.dtype(np.uint8)
    if order <= 0xFFFF:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


class FiniteGroup:
    """Immutable finite group backed by a full multiplication table.

    ``table[a, b]`` is the index of the product a*b. Optional ``labels``
    give a human-readable name per element; optional ``perms`` attach a
    permutation array per element (populated for symmetric groups).
    """

    __slots__ = ("order", "table", "identity", "labels", "perms", "_inv", "_gens", "_short", "_plan")

    def __init__(
        self,
        table: np.ndarray,
        identity: int,
        inverses: np.ndarray,
        labels: tuple[str, ...] | None,
        perms: tuple[Perm, ...] | None,
    ):
        self.order = int(table.shape[0])
        self.table = table
        self.identity = int(identity)
        self.labels = labels
        self.perms = perms
        self._inv = inverses
        self._short = self._plan = None  # short generators and extension plan, on first use

    def mul(self, a: int, b: int) -> int:
        if not (0 <= a < self.order and 0 <= b < self.order):  # 5x cheaper than element_indices
            element_indices((a, b), self.order, "element")  # raises, naming the first
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        if not 0 <= a < self.order:
            element_indices((a,), self.order, "element")
        return int(self._inv[a])

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        if not (0 <= g < self.order and 0 <= a < self.order):
            element_indices((g, a), self.order, "element")
        return int(self.table[self.table[g, a], self._inv[g]])

    def conjugation(self) -> np.ndarray:
        """The table of g * a * g^-1, indexed [g, a]."""
        check_buffer(self.order**2, self.table.itemsize, "conjugation table")
        return self.table[self.table, self._inv[:, None]]

    def power(self, a: int, k: int) -> int:
        powers = _powers(self, *element_indices([a], self.order, "element"))
        return powers[k % len(powers)]

    def element_order(self, a: int) -> int:
        return len(_powers(self, *element_indices([a], self.order, "element")))

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels is not None else str(a)

    def generated_subgroup(self, seeds) -> tuple[int, ...]:
        """Sorted element indices of the subgroup generated by ``seeds``."""
        seeds = element_indices(seeds, self.order, "subgroup seed")
        tree = _word_tree(self.table, self.identity, seeds)
        return tuple(sorted([self.identity, *(new for new, _, _ in tree)]))

    def generators(self) -> tuple[int, ...]:
        """Greedy generating set: repeatedly add the smallest index outside the
        span; validating the table records the one its associativity check builds."""
        return self._gens

    def short_generators(self) -> tuple[int, ...]:
        """Generating set of the crossed-hom engine, whose candidates number |A|^k.

        Max-span greedy: each step adds the element whose join with the set so
        far is largest (smallest index on ties). S4, S5, Q8 and S3 x Z/2 get
        k = 2, where :meth:`generators` has 3 to 4. Elements generating the
        same cyclic subgroup have the same joins, so only the least is tried.
        """
        if self._short is None:
            gens: list[int] = []
            span: tuple[int, ...] = (self.identity,)
            redundant: set[int] = set()  # a later generator of some tried <x>
            while len(span) < self.order:
                inside = set(span)
                for x in self.elements():
                    if x not in inside and x not in redundant:
                        if gens:
                            join = self.generated_subgroup(gens + [x])
                        else:  # the first step tries every element: join = <x>
                            powers = _powers(self, x)
                            join, k = tuple(sorted(powers)), len(powers)
                            if k < self.order:  # else x generates everything and the loop ends
                                redundant.update(powers[j] for j in range(2, k) if math.gcd(j, k) == 1)
                        if len(join) > len(span):  # strictly, so the least index wins ties
                            best, span = x, join
                        if len(span) == self.order:  # no later element beats the whole group
                            break
                gens.append(best)
            self._short = tuple(gens)
        return self._short

    def word_tree(self) -> list[tuple[int, int, int]]:
        """BFS decomposition: triples (new, prev, gen) with new = prev * gen.

        Every non-identity element appears exactly once as ``new``; ``prev``
        always appears earlier (or is the identity). Deterministic.
        """
        return _word_tree(self.table, self.identity, self.generators())

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _word_tree(table, identity: int, gens) -> list[tuple[int, int, int]]:
    """The breadth-first walk from ``identity`` by right multiplication by
    ``gens``, each column x -> x * g of ``table`` read as a list: triples
    (new, prev, gen) with new = prev * gen, each element reached once, in the
    order reached. The one closure of the package: :meth:`FiniteGroup.word_tree`,
    :meth:`FiniteGroup.generated_subgroup` and Light's test read it."""
    columns = [(g, table[:, g].tolist()) for g in gens]
    seen, queue = {identity}, [identity]
    tree: list[tuple[int, int, int]] = []
    for prev in queue:  # the queue grows while it is read
        for g, column in columns:
            if (new := column[prev]) not in seen:
                seen.add(new)
                tree.append((new, prev, g))
                queue.append(new)
    return tree


def _powers(group: FiniteGroup, x: int) -> list[int]:
    """e, x, x^2, ..., x^(n-1) for x of order n, by n - 1 products: the one
    power list of the package."""
    powers, nxt, column = [group.identity], x, group.table[:, x]
    while nxt != group.identity:
        powers.append(nxt)
        nxt = int(column[nxt])
    return powers


def element_indices(values, order: int, what: str) -> tuple[int, ...]:
    """``values`` as ints, checked before they index anything: ValueError
    naming the first one outside range(order)."""
    vector = isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu"
    if vector and not ((values < 0) | (values >= order)).any():  # one vectorized pass
        return tuple(values.tolist())
    ints = tuple(int(v) for v in values)
    bad = next((v for v in ints if not 0 <= v < order), None)
    if bad is not None:
        raise ValueError(f"{what} {bad} is not an element index in range({order})")
    return ints


def first_violation(holds: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first False entry of ``holds`` in row-major order, which is
    the order of nested loops over its axes; None when every entry holds."""
    if holds.all():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmin(holds), holds.shape))


def action_law(table: np.ndarray, act) -> np.ndarray:
    """Truth array, indexed [h, g, x], of act[h][act[g][x]] == act[hg][x] for the
    action rows ``act`` of the group with multiplication ``table``."""
    act = np.asarray(act, dtype=np.intp)
    check_buffer(act.shape[0] * act.size, 8, "action law")
    return act[:, act] == act[table.astype(np.intp)]


def _find_identity(table: np.ndarray) -> int:
    """The least two-sided identity, tested row and column at a time on the
    elements e with e * 0 = 0, so no table-sized comparison is allocated."""
    idx = np.arange(table.shape[0])
    for e in np.flatnonzero(table[:, 0] == 0).tolist():
        if (table[e] == idx).all() and (table[:, e] == idx).all():
            return e
    raise NoIdentity("no two-sided identity element in table")


def _check_associativity(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Light's test: (x*a)*y = x*(a*y) for all x, y and each generator a.

    The elements a that pass are closed under multiplication and include the
    identity, so they are all of the table once they include a generating set.
    Each generator is the least element outside the closure of the identity
    under right multiplication by the ones before it; the set is returned as
    the group's :meth:`~FiniteGroup.generators`. Rows x are taken
    ``ENGINE_CHUNK`` entries at a time.
    """
    n = table.shape[0]
    gens: list[int] = []
    seen = {identity}
    while len(seen) < n:
        gens.append(min(set(range(n)) - seen))
        seen = {identity, *(new for new, _, _ in _word_tree(table, identity, gens))}
    rows = max(1, ENGINE_CHUNK // (n * max(len(gens), 1)))
    for lo in range(0, n, rows):
        block = table[lo : lo + rows]
        left = table[block[:, gens]]  # left[x, j, y] = (x*a_j)*y
        right = block[:, table[gens]]  # right[x, j, y] = x*(a_j*y)
        if not np.array_equal(left, right):
            x, j, y = np.argwhere(left != right)[0]
            raise NotAssociative(lo + int(x), gens[j], int(y))
    return tuple(gens)


def make_group(
    table,
    labels: tuple[str, ...] | None = None,
    perms: tuple[Perm, ...] | None = None,
) -> FiniteGroup:
    """Validate a multiplication table and wrap a copy of it as a FiniteGroup,
    so that no caller can change the group's table afterwards."""
    return _adopt_table(np.asarray(table), labels, perms, copy=True)


def _adopt_table(arr: np.ndarray, labels=None, perms=None, copy: bool = False) -> FiniteGroup:
    """:func:`make_group` on a table that nothing else holds, which the group
    keeps without a copy when it already has its final dtype."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"table must be a nonempty square array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"table entries must be integers, got dtype {arr.dtype}")
    n = arr.shape[0]
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must be element indices in range")
    check_buffer(n * n, arr.itemsize, "group multiplication table")
    arr = arr.astype(_table_dtype(n), copy=copy)
    arr.setflags(write=False)
    identity = _find_identity(arr)
    gens = _check_associativity(arr, identity)
    step, every = max(1, ENGINE_CHUNK // n), np.arange(n)  # the least b with a b = e, if any
    rows = [(arr[lo : lo + step] == identity).argmax(axis=1) for lo in range(0, n, step)]
    inverses = np.concatenate(rows).astype(arr.dtype)
    bad = np.flatnonzero((arr[every, inverses] != identity) | (arr[inverses, every] != identity))
    if bad.size:
        raise NoInverse(int(bad[0]))
    if labels is not None and len(labels) != n:
        raise ValueError("labels length must match group order")
    group = FiniteGroup(arr, identity, inverses, labels, perms)
    group._gens = gens
    return group


def group_table(n: int, rows_of, width: int, labels=None, perms=None) -> FiniteGroup:
    """The group of the n x n table that ``rows_of(r)`` fills on blocks r of row indices,
    ``ENGINE_CHUNK`` entries of width ``width`` each. The table in its final dtype and one
    block's rows x n x width int64 entries pass :func:`check_buffer` before either exists."""
    dtype, rows = _table_dtype(n), max(1, ENGINE_CHUNK // (n * width))
    check_buffer(n * n, dtype.itemsize, "group multiplication table")
    check_buffer(min(rows, n) * n * width, 8, "group table rows")
    table = np.empty((n, n), dtype=dtype)
    for lo in range(0, n, rows):
        table[lo : lo + rows] = rows_of(np.arange(lo, min(lo + rows, n)))
    return _adopt_table(table, labels, perms)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with elements 0..n-1 (rotation k has index k) and rotation labels."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    # row k of rotations is (k + j) mod n over j
    rotations = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n - 1) % n, n)
    return group_table(n, lambda r: rotations[r], 1, tuple(f"r{k}" for k in range(n)))


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its least point, by least point."""
    seen: set[int] = set()
    cycles = []
    for i in range(len(p)):
        if i not in seen:
            cycle = [i]
            while p[cycle[-1]] != i:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def perm_sign(p: Perm) -> int:
    return -1 if sum(len(c) - 1 for c in _cycles(p)) % 2 else 1


def perm_cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths sorted descending."""
    return tuple(sorted(map(len, _cycles(p)), reverse=True))


def _perm_label(p: Perm) -> str:
    parts = ("(" + " ".join(str(x + 1) for x in c) + ")" for c in _cycles(p) if len(c) > 1)
    return "".join(parts) or "()"


def symmetric_group(m: int) -> FiniteGroup:
    """S_m with elements in lexicographic permutation order (identity first)."""
    if m < 1:
        raise ValueError("symmetric group degree must be >= 1")
    fact = math.factorial(m)
    if fact > DEFAULT_MAX_GROUP_ORDER:
        raise SizeLimit(f"|S_{m}| = {fact} exceeds bound {DEFAULT_MAX_GROUP_ORDER}")
    # sized before the permutations are listed; group_table checks the same bytes
    check_buffer(fact * fact, _table_dtype(fact).itemsize, "group multiplication table")
    perms = tuple(itertools.permutations(range(m)))
    arr = np.array(perms, dtype=np.uint8).reshape(fact, m)
    # base-m codes increase in lexicographic order, so a code's rank is its index;
    # arr[r][:, arr][i, j, k] = p_i[p_j[k]]: the product p_i * p_j applies p_j first
    weights = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    codes = arr @ weights
    labels = tuple(_perm_label(p) for p in perms)
    return group_table(
        fact, lambda r: np.searchsorted(codes, arr[r][:, arr] @ weights), m, labels, perms
    )


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n; rotations r0..r{n-1} at indices 0..n-1, reflections after.

    Element (eps, i) = s^eps r^i sits at index eps*n + i; relation s r s = r^-1.
    """
    if n < 1:
        raise ValueError("dihedral group parameter must be >= 1")
    window = np.arange(2 * n - 1, dtype=_table_dtype(2 * n)) % n
    # rotations[e, k] is (k + j) mod n + e n over j, a window onto one of two rows
    rotations = np.lib.stride_tricks.sliding_window_view(np.stack((window, window + n)), n, axis=1)
    e, i = np.divmod(np.arange(2 * n), n)

    def rows_of(r):  # s^e1 r^i1 s^e2 r^i2 = s^(e1 ^ e2) r^(i2 + (-1)^e2 i1)
        return np.concatenate((rotations[e[r], i[r]], rotations[1 - e[r], -i[r]]), axis=1)

    labels = tuple(f"r{i}" for i in range(n)) + tuple(f"sr{i}" for i in range(n))
    return group_table(2 * n, rows_of, 1, labels)


def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k in that order."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    idx = {n: t for t, n in enumerate(names)}
    basic = {
        ("1", "1"): "1",
        ("1", "i"): "i", ("i", "1"): "i",
        ("1", "j"): "j", ("j", "1"): "j",
        ("1", "k"): "k", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a: str, b: str) -> str:
        sign = a.startswith("-") ^ b.startswith("-")
        res = basic[(a.lstrip("-"), b.lstrip("-"))]
        if res.startswith("-"):
            sign = not sign
            res = res[1:]
        return ("-" if sign else "") + res

    table = [[idx[mul(a, b)] for b in names] for a in names]
    return make_group(table, names)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with element (a, b) at index a*|H| + b."""
    ng, nh = g.order, h.order
    ai, bi = np.divmod(np.arange(ng * nh), nh)

    def rows_of(r):  # (a, b) * (a', b') = (a a', b b'), at index (a a') |H| + b b'
        left = np.multiply(_product(g.table, ai[r, None], ai), nh, dtype=np.intp)
        return left + _product(h.table, bi[r, None], bi)

    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(f"({g.labels[a]},{h.labels[b]})" for a, b in zip(ai, bi))
    return group_table(ng * nh, rows_of, 3, labels)


@dataclass(frozen=True)
class Subgroup:
    """Subset of a parent group, closed under product and inverse."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @staticmethod
    def from_members(parent: FiniteGroup, members) -> Subgroup:
        members = element_indices(members, parent.order, "subgroup member")
        sub = Subgroup(parent, tuple(sorted(set(members))))
        if parent.identity not in sub.members:
            raise ValueError("subgroup must contain the identity")
        m = list(sub.members)
        check_buffer(len(m) * (len(m) + 1), 8, "subgroup closure check")
        # column 0 is the inverse of a, column 1 + j the product a * members[j]
        images = np.concatenate([parent._inv[m, None], parent.table[m][:, m]], axis=1)
        bad = first_violation(sub.position()[images] >= 0)
        if bad is not None:
            i, j = bad
            if j == 0:
                raise ValueError(f"subgroup not closed under inverse at element {m[i]}")
            raise ValueError(f"subgroup not closed under product at ({m[i]}, {m[j - 1]})")
        return sub

    @property
    def order(self) -> int:
        return len(self.members)

    def position(self) -> np.ndarray:
        """Each parent element's index among the members, or -1."""
        pos = np.full(self.parent.order, -1, dtype=np.intp)
        pos[list(self.members)] = np.arange(self.order)
        return pos

    def stray(self, images) -> tuple[int, int] | None:
        """First (row, member a), rows outermost, with ``images[row, a]`` outside the subgroup."""
        m = list(self.members)
        check_buffer(len(images) * len(m), 8, "subgroup stability check")
        bad = first_violation(self.position()[np.asarray(images)[:, m]] >= 0)
        return None if bad is None else (bad[0], m[bad[1]])

    def is_normal(self) -> bool:
        return self.stray(self.parent.conjugation()) is None


def whole_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Relabel a subgroup as its own group; returns (group, embedding).

    ``embedding[i]`` is the parent index of the relabeled element i; elements
    keep the sorted-parent-index order.
    """
    members, position, parent = sub.members, sub.position(), sub.parent
    at = np.array(members, dtype=np.intp)
    labels = None if parent.labels is None else tuple(parent.labels[m] for m in members)
    group = group_table(len(at), lambda r: position[parent.table[np.ix_(at[r], at)]], 1, labels)
    return group, members


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, sorted by (order, members).

    Every subgroup is generated by its elements, so the closure of the
    trivial subgroup under joining one more element -- that is, the closure
    of the cyclic subgroups under joins -- reaches all of them.
    """
    found = {(g.identity,): ()}  # members -> the seeds that generated them
    frontier = list(found)
    while frontier:
        grown = []
        for members in frontier:
            for x in set(range(g.order)) - set(members):
                seeds = found[members] + (x,)
                joined = g.generated_subgroup(seeds)
                if joined not in found:
                    found[joined] = seeds
                    grown.append(joined)
        frontier = grown
    return sorted((Subgroup(g, m) for m in found), key=lambda s: (s.order, s.members))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between finite groups, stored as an image array."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    @staticmethod
    def make(source: FiniteGroup, target: FiniteGroup, image) -> GroupHom:
        """The hom with ``image``, its law checked on the pairs (a, t) with t in
        ``source.generators()``: a map with e -> e and f(at) = f(a) f(t) for
        every such t has f(ab) = f(a) f(b), by induction on b's word length.
        A map that fails is checked on all pairs to name the first failing one."""
        img = element_indices(image, target.order, "hom image entry")
        if len(img) != source.order:
            raise ValueError("image length must match source order")
        if img[source.identity] != target.identity:
            raise ValueError("homomorphism must send identity to identity")
        gens = list(source.generators())
        check_buffer(source.order * len(gens), 8, "homomorphism law")
        arr = np.array(img, dtype=np.intp)
        if not np.array_equal(arr[source.table[:, gens]], target.table[arr[:, None], arr[gens]]):
            check_buffer(source.order**2, 8, "homomorphism law")
            bad = first_violation(arr[source.table] == target.table[arr[:, None], arr])
            raise ValueError(f"homomorphism law fails at pair {bad}")
        return GroupHom(source, target, img)

    def __call__(self, a: int) -> int:
        return self.image[a]

    def kernel(self) -> Subgroup:
        members = np.flatnonzero(np.array(self.image) == self.target.identity)
        return Subgroup(self.source, tuple(members.tolist()))

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.order

    def compose(self, inner: GroupHom) -> GroupHom:
        """self o inner."""
        if inner.target is not self.source:
            raise ValueError("compose requires inner.target == self.source")
        return GroupHom(
            inner.source, self.target, tuple(self.image[x] for x in inner.image)
        )


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(range(g.order)))


def product_chunks(radices, width: int, what: str):
    """``itertools.product(*map(range, radices))`` in (ranks, digits) chunks:
    ranks a slice of ``arange(prod(radices))`` and digits its (rows,
    len(radices)) decode, the last digit fastest. A chunk holds
    ``max(1, ENGINE_CHUNK // width)`` rows, the last one fewer, and one chunk's
    rows * width entries pass :func:`check_buffer` as ``what`` before anything
    is allocated. No radices give one row of width 0; a zero radix, no rows."""
    total, rows = math.prod(radices), max(1, ENGINE_CHUNK // width)
    check_buffer(min(rows, total) * width, 8, what)
    for lo in range(0, total, rows):
        ranks = np.arange(lo, min(lo + rows, total))
        digits, rest = np.empty((len(ranks), len(radices)), dtype=np.intp), ranks
        for j in reversed(range(len(radices))):
            rest, digits[:, j] = np.divmod(rest, radices[j])
        yield ranks, digits


def _product(table: np.ndarray, a, b) -> np.ndarray:
    """``table[a, b]`` for index arrays that broadcast: one gather from the raveled table at
    intp offsets a * width + b, ``a`` widened first (NEP 50 keeps uint8 * int in uint8)."""
    return table.ravel()[np.multiply(a, table.shape[1], dtype=np.intp) + b]


def _extension_plan(gamma: FiniteGroup) -> tuple:
    """(at, levels, powers, width): the crossed-hom schedule of ``gamma``, kept on it. Row
    ``at[g]`` holds alpha(g), rows in the order the short generators' word tree reaches them.
    A breadth-first level is (end row, fills, checks) of the pairs (x, s) whose rows then exist,
    fills on the tree, checks off it: each None or (x elements, rows x, s (and xs) stacked for
    one gather, rows xs). ``powers`` lists s, ..., s^(n - 1) per generator s of order n; ``width``
    counts a candidate's intp entries: rows, compressed copy, five temporaries of a level."""
    if gamma._plan is None:
        tree = _word_tree(gamma.table, gamma.identity, gens := gamma.short_generators())
        reached = [new for new, _, _ in tree]  # every element but e
        at, depth = np.argsort([gamma.identity, *reached]), [0] * gamma.order
        for new, prev, _ in tree:
            depth[new] = depth[prev] + 1
        steps = [([], []) for _ in range(max(depth) + 1)]  # each level's fills and checks
        edges = {(prev, gen) for _, prev, gen in tree}
        for x, s in itertools.product(reached, gens):  # alpha(e * s) comes from the pools
            xs = int(gamma.table[x, s])
            steps[max(depth[x], depth[xs])][(x, s) not in edges].append((x, at[x], at[s], at[xs]))

        def batch(pairs, stacked):  # x elements, the rows x, s (and xs) stacked, the rows xs
            arr = np.array(pairs, dtype=np.intp).reshape(-1, 4).T
            return (arr[0], arr[1:stacked].ravel(), arr[3]) if pairs else None

        ends = np.cumsum(np.bincount(depth))[1:]
        levels = [(end, batch(f, 3), batch(c, 4)) for end, (f, c) in zip(ends, steps[1:])]
        powers = [np.array(_powers(gamma, s)[1:], dtype=np.intp) for s in gens]
        gamma._plan = (at, levels, powers, 2 * gamma.order + 5 * max(map(len, sum(steps, ()))))
    return gamma._plan


def crossed_homs(gamma: FiniteGroup, base: FiniteGroup, action=None, pools=None) -> np.ndarray:
    """Every crossed hom gamma -> base, as value rows in lexicographic order.

    The law is ``alpha(hg) = alpha(h) * alpha(g)^h`` with ``a^g = action[g, a]`` (see
    :mod:`cocycle.cohomology`); with no action the rows are the homs. Candidates give each
    of ``gamma.short_generators()`` a value (from ``pools[j]``, default all of base) and
    extend along its word tree. The survivors of the law on every other pair (x, s), s a
    generator, satisfy it on all pairs, by induction on word length under ``(a^g)^h = a^(hg)``.

    Before that, each pool keeps only the values x of its generator s, of order n, with
    alpha(s^n) = e, where alpha(s) = x and alpha(s^(j+1)) = alpha(s^j) * x^(s^j): every crossed
    hom satisfies this cyclic relation, so the survivors do not change. The candidate bound
    counts the pools as given, before this filter; :func:`_extension_plan` lays out a chunk.
    """
    gens, (at, levels, powers, width) = gamma.short_generators(), _extension_plan(gamma)
    pools = [np.arange(base.order)] * len(gens) if pools is None else pools
    pools = [np.asarray(p, dtype=np.intp) for p in pools]
    if (n_cand := math.prod(len(p) for p in pools)) > DEFAULT_MAX_CANDIDATES:
        raise SizeLimit(
            f"{n_cand} candidates on {len(gens)} generators exceed bound {DEFAULT_MAX_CANDIDATES}"
        )
    act = None if action is None or np.all(action == np.arange(base.order)) else np.asarray(action)

    def law_rhs(block, x_el):  # alpha(x) * alpha(s)^x from the rows [alpha(x); alpha(s)]
        x, s = block[: len(x_el)], block[len(x_el) : 2 * len(x_el)]
        return _product(base.table, x, s if act is None else _product(act, x_el[:, None], s))

    for j, xs in enumerate(powers):  # y runs through alpha(s^2), ..., alpha(s^n)
        y = pool = pools[j]
        for moved in [pool] * len(xs) if act is None else _product(act, xs[:, None], pool):
            y = _product(base.table, y, moved)
        pools[j] = pool[y == base.identity]

    found = [np.empty((0, gamma.order), dtype=np.intp)]
    for _, digits in product_chunks([len(p) for p in pools], width, "crossed-hom candidate chunk"):
        vals = np.full((gamma.order, len(digits)), base.identity, dtype=np.intp)
        for j, pool in enumerate(pools):
            vals[j + 1] = pool[digits[:, j]]
        for hi, fill, check in levels:  # one gather of the rows each batch reads
            if fill:
                vals[fill[2]] = law_rhs(vals[fill[1]], fill[0])
            if check:
                block = vals[check[1]]
                keep = (law_rhs(block, check[0]) == block[2 * len(check[0]) :]).all(axis=0)
                if not keep.all():
                    vals, filled = np.empty((gamma.order, np.count_nonzero(keep)), np.intp), vals
                    np.compress(keep, filled[:hi], axis=1, out=vals[:hi])
        found.append(vals[at].T)
    vals = np.concatenate(found)
    return vals[lex_order(vals, base.order)]


def lex_order(rows: np.ndarray, n_values: int) -> np.ndarray:
    """``np.lexsort(rows.T[::-1])`` for entries in ``range(n_values)``: it packs
    63 // b columns of b = (n_values - 1).bit_length() bits into each int64
    word, most significant first, and lexsorts the words."""
    b = max((n_values - 1).bit_length(), 1)
    per, n_cols = 63 // b, rows.shape[1]
    words = [
        rows[:, lo : lo + per]
        @ np.array([1 << b * j for j in reversed(range(min(per, n_cols - lo)))], dtype=np.int64)
        for lo in range(0, n_cols, per)
    ]
    return np.lexsort(words[::-1])


def distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)``: the distinct keys, increasing. A plain ``np.unique``
    call imports ``numpy.ma`` on first use (numpy 2.x); this sort does not."""
    keys = np.sort(keys, axis=None)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def lookup_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in the nonempty increasing ``sorted_keys``, or -1."""
    at = np.searchsorted(sorted_keys, keys)
    at[sorted_keys.take(at, mode="clip") != keys] = -1
    return at


def _horner(digits: np.ndarray, radix: int) -> np.ndarray:
    """``sum_j digits[j] radix^j`` over the first axis, by Horner's rule in int64."""
    start = digits[-1].astype(np.int64) if len(digits) else np.zeros(digits.shape[1:], np.int64)
    return functools.reduce(lambda key, d: key * radix + d, digits[-2::-1], start)


def coboundary_classes(
    gamma: FiniteGroup, base: FiniteGroup, action, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the rows of :func:`crossed_homs` under ``alpha(g) -> a^-1 alpha(g) a^g``.

    The transform is an action of base, so the classes are the connected components of the
    graph joining each row to its move by each t of ``base.generators()``: words in them
    reach every a. For the same reason the rows are closed under all of base if and only if
    they are closed under the generators; a move leaving the rows (a convention bug) raises
    MatchFailure. Rows are keyed by ``sum_j alpha(s_j) |base|^j`` over the short generators
    (:func:`_horner`), so a move is two :func:`_product` gathers and one lookup, taken
    ``ENGINE_CHUNK`` entries at a time. Returns each class's least row, increasing, and the
    class of every row.
    """
    n, na, gens, moves = len(vals), base.order, [*gamma.short_generators()], [*base.generators()]
    gen_vals = np.asarray(vals).T[gens]  # [j, r] = alpha_r(s_j)
    by_key = np.argsort(keys := _horner(gen_vals, na))
    sorted_keys = keys[by_key]
    shift = (np.arange(na)[None] if action is None else np.asarray(action)[gens])[:, moves].T
    t_inv = base._inv[moves][:, None, None]  # t_i^-1, and shift[i, j] = t_i^(s_j), t_i a move
    rows = max(1, ENGINE_CHUNK // max(len(moves) * len(gens), 1))
    check_buffer(min(rows, n) * len(moves) * max(len(gens), 1), 8, "coboundary move chunk")
    heads, tails = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, n, rows):
        inner = _product(base.table, t_inv, gen_vals[:, lo : lo + rows])  # [i, j, r]
        moved_keys = _horner(_product(base.table, inner, shift[:, :, None]).transpose(1, 0, 2), na)
        edge = moved_keys != keys[lo : lo + rows]  # [i, r]: t_i moves row lo + r off itself
        pos = lookup_sorted(sorted_keys, moved_keys[edge])
        if (pos < 0).any():
            raise MatchFailure("coboundary transform left the cocycle set; action convention bug")
        heads.append(np.nonzero(edge)[1] + lo)
        tails.append(by_key[pos])
    least = _least_in_component(n, np.concatenate(heads), np.concatenate(tails))
    is_rep = least == np.arange(n)
    return np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[least]


def _least_in_component(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component in the graph on 0..n-1 with
    edges (heads[i], tails[i]).

    Each round hooks every root onto the least root it shares an edge with,
    then pointer jumping points every vertex at its root. Parents only ever
    decrease, so a root is the least vertex of its tree; every tree with an
    edge out merges in a round, so O(log n) rounds suffice.
    """
    root = np.arange(n)
    while True:
        a, b = root[heads], root[tails]
        cross = a != b
        if not cross.any():
            return root
        heads, tails, a, b = heads[cross], tails[cross], a[cross], b[cross]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while ((up := root[root]) != root).any():
            root = up


def enumerate_homs(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms source -> target, ordered by image tuple: the crossed
    homs for the trivial action (:func:`crossed_homs`)."""
    rows = crossed_homs(source, target)
    return [GroupHom(source, target, image) for image in map(tuple, rows.tolist())]


def homs_up_to_conjugacy(source: FiniteGroup, target: FiniteGroup) -> list[GroupHom]:
    """One lexicographically-least representative per target-conjugacy orbit."""
    rows = crossed_homs(source, target)
    reps, _ = coboundary_classes(source, target, None, rows)
    return [GroupHom(source, target, tuple(rows[r].tolist())) for r in reps]


def orbit_partition(images) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of a finite group on points, where ``images[g, x]`` is the image of
    point x under every element g, so column x holds x's whole orbit: each
    orbit's least point, increasing, and each column's orbit index."""
    return np.unique(np.asarray(images).min(axis=0), return_inverse=True)


def orbit_members(orbit_of: np.ndarray, points=None) -> tuple[tuple[int, ...], ...]:
    """Each orbit's points, increasing, from :func:`orbit_partition`'s orbit
    indices; ``points`` (increasing, default 0, 1, ...) labels its columns."""
    points = np.arange(len(orbit_of)) if points is None else np.asarray(points)
    by_orbit, ends = points[np.argsort(orbit_of, kind="stable")], np.cumsum(np.bincount(orbit_of))
    return tuple(tuple(block.tolist()) for block in np.split(by_orbit, ends[:-1]))


def quotient_group(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset group G/N plus the canonical projection; N must be normal."""
    if n.parent is not g:
        raise ValueError("subgroup parent mismatch")
    bad = n.stray(g.conjugation())
    if bad is not None:
        raise NotNormal(*bad)
    reps, coset_of = orbit_partition(g.table[:, list(n.members)].T)  # column x is xN
    labels = tuple(f"[{g.label(x)}]" for x in reps.tolist())
    quot = group_table(len(reps), lambda r: coset_of[g.table[np.ix_(reps[r], reps)]], 1, labels)
    return quot, GroupHom.make(g, quot, coset_of)


def automorphism_group(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms as permutations of element indices, sorted: the homs
    that send each short generator to an element of its order and are bijective."""
    orders = np.array([g.element_order(a) for a in g.elements()])
    pools = [np.flatnonzero(orders == orders[s]) for s in g.short_generators()]
    rows = crossed_homs(g, g, pools=pools)
    bijective = np.all(np.sort(rows, axis=1) == np.arange(g.order), axis=1)
    return list(map(tuple, rows[bijective].tolist()))
