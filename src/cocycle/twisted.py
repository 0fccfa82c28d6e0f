"""Twisted actions, principal homogeneous spaces, and Shapiro induction.

With the package's action composition (``(g^s)^t = g^(ts)``), a twisted
semiaction ``rho(hg, s) = h^s rho(g, s)``, ``rho(1,1) = 1`` is a twisted
action when ``rho(rho(g, s), t) = rho(g, ts)``. Semiactions are determined
by the vector ``c(s) = rho(1, s)`` via ``rho(g, s) = g^s c(s)``; the action
condition becomes ``c(ts) = c(s)^t c(t)``, and ``s -> c(s)^-1`` translates
twisted actions bijectively into 1-cocycles.

The group of all maps ``f: gamma -> G`` carries the translation action
``f^s(t) = f(ts)``; for a subgroup H and an H-group G, the induced group is
the maps with ``phi(l*s) = phi(s)^l`` for l in H, and evaluation at the
identity restricts its cocycles to H-cocycles of G. Both formulas are pinned
by the verification suites (Shapiro bijection, triviality of H1 of the full
map group), not taken on faith.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cohomology, groups
from .cohomology import Cocycle, GammaGroup, H1Set, match_blocks
from .errors import (
    DEFAULT_MAX_CANDIDATES,
    BijectionFailure,
    CounterexampleFound,
    MatchFailure,
    SizeLimit,
    check_buffer,
)
from .groups import FiniteGroup, Subgroup, action_law, first_violation, group_table
from .groups import distinct_sorted, lookup_sorted, orbit_partition, subgroup_as_group


@dataclass(frozen=True)
class TwistedSemiaction:
    """Map rho: G x gamma -> G with rho(hg,s) = h^s rho(g,s) and rho(1,1) = 1."""

    parent: GammaGroup
    rho: tuple[tuple[int, ...], ...]  # rho[g][s]

    @staticmethod
    def make(parent: GammaGroup, rho) -> TwistedSemiaction:
        g_n, s_n = parent.base.order, parent.gamma.order
        table = tuple(tuple(int(x) for x in row) for row in rho)
        if len(table) != g_n or any(len(row) != s_n for row in table):
            raise ValueError("rho must be indexed by (base element, gamma element)")
        if table[parent.base.identity][parent.gamma.identity] != parent.base.identity:
            raise ValueError("rho(1, 1) must be 1")
        check_buffer(g_n * g_n * s_n, 8, "semiaction law")
        arr, base = np.array(table, dtype=np.intp), parent.base
        # [h, g, s]: rho(hg, s) == h^s rho(g, s)
        bad = first_violation(arr[base.table] == base.table[parent.action.T[:, None], arr])
        if bad is not None:
            h, g, s = bad
            raise ValueError(f"semiaction law fails at (h={h}, g={g}, s={s})")
        return TwistedSemiaction(parent, table)

    @staticmethod
    def from_vector(parent: GammaGroup, vector) -> TwistedSemiaction:
        """Reconstruct the full table from c(s) = rho(1, s)."""
        vec = tuple(int(x) for x in vector)
        if len(vec) != parent.gamma.order or min(vec) < 0 or max(vec) >= parent.base.order:
            raise ValueError(f"vector must hold {parent.gamma.order} base element indices")
        if vec[parent.gamma.identity] != parent.base.identity:
            raise ValueError("vector must send the identity of gamma to 1")
        rho = parent.base.table[parent.action.T, np.array(vec)]
        return TwistedSemiaction(parent, tuple(map(tuple, rho.tolist())))

    @property
    def vector(self) -> tuple[int, ...]:
        return self.rho[self.parent.base.identity]


def is_twisted_action(
    semiaction: TwistedSemiaction,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Check rho(rho(g,s), t) = rho(g, ts) on every triple (g, s, t)."""
    rho = np.array(semiaction.rho, dtype=np.intp)
    bad = first_violation(action_law(semiaction.parent.gamma.table, rho.T).transpose(2, 1, 0))
    return bad is None, bad


def enumerate_twisted_actions(parent: GammaGroup) -> list[TwistedSemiaction]:
    """Every semiaction vector that is a twisted action, in ``itertools.product``
    order over the non-identity gamma elements.

    The vectors come in the chunks of :func:`groups.product_chunks` and are
    screened by the identity slice of the law, c(s)^t c(t) = c(ts); only the
    survivors are built as semiactions and checked on every triple.
    """
    base, gamma, action = parent.base, parent.gamma, parent.action
    g_n, s_n = base.order, gamma.order
    n_vectors = g_n ** (s_n - 1)
    if n_vectors > DEFAULT_MAX_CANDIDATES:
        raise SizeLimit(f"{n_vectors} semiaction vectors exceed bound {DEFAULT_MAX_CANDIDATES}")
    others = [s for s in range(s_n) if s != gamma.identity]
    found = []
    for _, digits in groups.product_chunks((g_n,) * len(others), s_n, "twisted action screen"):
        vecs = np.full((len(digits), s_n), base.identity, dtype=np.intp)
        vecs[:, others] = digits
        # c(s)^t c(t) == c(ts), which holds when s or t is the identity
        for s, t in itertools.product(others, repeat=2):
            moved = action[t, vecs[:, s]]
            vecs = vecs[base.table[moved, vecs[:, t]] == vecs[:, gamma.table[t, s]]]
        for vec in vecs:
            candidate = TwistedSemiaction.from_vector(parent, vec)
            if is_twisted_action(candidate)[0]:
                found.append(candidate)
    return found


@dataclass(frozen=True)
class TwistCorrespondence:
    """Bijection between twisted actions and 1-cocycles via alpha(s) = c(s)^-1."""

    parent: GammaGroup
    pairs: tuple[tuple[TwistedSemiaction, Cocycle], ...]
    h1: H1Set


def cocycle_of_twist(twist: TwistedSemiaction) -> Cocycle:
    parent = twist.parent
    values = tuple(parent.base.inv(v) for v in twist.vector)
    return cohomology.make_cocycle(parent, values)


def twist_of_cocycle(alpha: Cocycle) -> TwistedSemiaction:
    parent = alpha.parent
    vector = tuple(parent.base.inv(v) for v in alpha.values)
    twist = TwistedSemiaction.from_vector(parent, vector)
    ok, witness = is_twisted_action(twist)
    if not ok:
        raise CounterexampleFound(f"cocycle translated to a non-action at {witness}")
    return twist


def cocycle_twist_correspondence(parent: GammaGroup) -> TwistCorrespondence:
    """Pair every twisted action with its cocycle; round-trips are checked."""
    twists = enumerate_twisted_actions(parent)
    h1_set = cohomology.h1(parent)
    pairs = tuple((twist, cocycle_of_twist(twist)) for twist in twists)
    for twist, alpha in pairs:
        if twist_of_cocycle(alpha).vector != twist.vector:
            raise BijectionFailure("twist -> cocycle -> twist does not round-trip")
    match_blocks([[alpha.values] for _, alpha in pairs], h1_set.class_of, "twists -> cocycles")
    return TwistCorrespondence(parent, pairs, h1_set)


# ---------------------------------------------------------------------------
# principal homogeneous spaces


@dataclass(frozen=True)
class GSpace:
    """Finite set with commuting G- and gamma-actions.

    Compatibility ``g^s * x^s = (g * x)^s`` and both action laws are checked
    on construction; ``principal`` checks that the G-action is free and
    transitive.
    """

    parent: GammaGroup
    n_points: int
    g_action: tuple[tuple[int, ...], ...]      # [g][x]
    gamma_action: tuple[tuple[int, ...], ...]  # [s][x]
    principal: bool

    @staticmethod
    def make(parent: GammaGroup, g_action, gamma_action, principal: bool) -> GSpace:
        g_act = tuple(tuple(int(x) for x in row) for row in g_action)
        s_act = tuple(tuple(int(x) for x in row) for row in gamma_action)
        n = len(g_act[0]) if g_act else 0
        base, gamma = parent.base, parent.gamma
        if (len(g_act), len(s_act), set(map(len, g_act + s_act))) != (base.order, gamma.order, {n}):
            raise ValueError(f"need {base.order} G-rows and {gamma.order} gamma-rows of {n} points")
        g_arr, s_arr, points = np.array(g_act), np.array(s_act), np.arange(n)
        if n and not (0 <= min(g_arr.min(), s_arr.min()) and max(g_arr.max(), s_arr.max()) < n):
            raise ValueError(f"action entries must be points below {n}")
        if (g_arr[base.identity] != points).any() or (s_arr[gamma.identity] != points).any():
            raise ValueError("identities must act trivially")
        bad = first_violation(action_law(base.table, g_arr))
        if bad is not None:
            raise ValueError(f"G-action law fails at ({bad[0]},{bad[1]},{bad[2]})")
        bad = first_violation(action_law(gamma.table, s_arr).transpose(1, 0, 2))
        if bad is not None:
            raise ValueError(f"gamma-action law fails at ({bad[0]},{bad[1]},{bad[2]})")
        check_buffer(base.order * s_arr.size, 8, "compatibility law")
        # [g, s, x]: g^s * x^s == (g * x)^s
        lhs = g_arr[parent.action.T[:, :, None], s_arr]
        bad = first_violation(lhs == s_arr[np.arange(gamma.order)[:, None], g_arr[:, None]])
        if bad is not None:
            raise ValueError(
                f"compatibility g^s * x^s = (g*x)^s fails at ({bad[0]},{bad[1]},{bad[2]})"
            )
        if principal:
            if n != base.order:
                raise ValueError("principal space must have |G| points")
            if distinct_sorted(g_arr[:, 0]).size != n:  # the orbit of point 0
                raise ValueError("G-action is not free and transitive")
        return GSpace(parent, n, g_act, s_act, principal)


def twisted_space(twist: TwistedSemiaction) -> GSpace:
    """The set G with left translation and the twisted gamma-action."""
    return GSpace.make(twist.parent, twist.parent.base.table, np.array(twist.rho).T, principal=True)


def phs_isomorphism(p: GSpace, q: GSpace) -> int | None:
    """Image of p's base point under an isomorphism, or None.

    A G-equivariant bijection of principal spaces is determined by the image
    y of one point, so all of q's points y are tried at once.
    """
    if p.parent is not q.parent or not (p.principal and q.principal):
        raise ValueError("isomorphism search requires principal spaces over one parent")
    g_p, s_p = np.array(p.g_action), np.array(p.gamma_action)
    g_q, s_q = np.array(q.g_action), np.array(q.gamma_action)
    transporter = np.empty(p.n_points, dtype=np.intp)
    transporter[g_p[:, 0]] = np.arange(p.parent.base.order)  # g . x0 = x
    check_buffer(s_p.size * q.n_points, 8, "isomorphism candidates")
    theta = g_q[transporter]  # [x, y]: the candidate with x0 -> y sends x to theta[x, y]
    hits = np.flatnonzero((theta[s_p] == s_q[:, theta]).all(axis=(0, 1)))
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class PhsClassification:
    """One principal homogeneous space per cohomology class, verified distinct."""

    h1: H1Set
    spaces: tuple[GSpace, ...]

    @property
    def n_classes(self) -> int:
        return len(self.spaces)


def classify_phs(parent: GammaGroup) -> PhsClassification:
    """Realize every H1 class as a twisted structure on G and verify the
    classes are pairwise non-isomorphic while cohomologous cocycles give
    isomorphic spaces."""
    h1_set = cohomology.h1(parent)
    spaces = []
    for rep in h1_set.classes:
        spaces.append(twisted_space(twist_of_cocycle(rep)))
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            if phs_isomorphism(spaces[i], spaces[j]) is not None:
                raise BijectionFailure(
                    f"spaces of distinct classes {i} and {j} are isomorphic"
                )
    for i, members in enumerate(h1_set.members):
        if len(members) > 1:
            other = twisted_space(twist_of_cocycle(Cocycle(parent, members[1])))
            if phs_isomorphism(spaces[i], other) is None:
                raise BijectionFailure(
                    f"cohomologous cocycles of class {i} gave non-isomorphic spaces"
                )
    return PhsClassification(h1_set, tuple(spaces))


# ---------------------------------------------------------------------------
# Shapiro induction


@dataclass(frozen=True)
class InducedGammaGroup:
    """Constrained maps gamma -> G with the translation gamma-action.

    ``maps[i]`` is the value tuple of the i-th element; the group is their
    pointwise product and ``gamma_group`` carries the action
    ``phi^s(t) = phi(ts)``.
    """

    gamma: FiniteGroup
    h_sub: Subgroup
    base_action: GammaGroup
    maps: tuple[tuple[int, ...], ...]
    gamma_group: GammaGroup


def _check_h_action(gamma: FiniteGroup, h_sub: Subgroup, g_action: GammaGroup) -> FiniteGroup:
    h_group, embed = subgroup_as_group(h_sub)
    if g_action.gamma.order != h_group.order or not np.array_equal(
        g_action.gamma.table, h_group.table
    ):
        raise ValueError(
            "g_action must be an action of the canonical relabeled subgroup "
            "(build it over subgroup_as_group(h_sub)[0])"
        )
    return h_group


def shapiro_induce(gamma: FiniteGroup, h_sub: Subgroup, g_action: GammaGroup) -> InducedGammaGroup:
    """Group of maps phi with phi(l*s) = phi(s)^l for l in H, as a gamma-group."""
    if h_sub.parent is not gamma:
        raise ValueError("h_sub must be a subgroup of gamma")
    _check_h_action(gamma, h_sub, g_action)
    g = g_action.base
    ng = gamma.order
    # right cosets H*s, each map free on their least elements: s = l * reps[coset_of[s]]
    reps, coset_of = orbit_partition(gamma.table[list(h_sub.members)])
    index = len(reps)
    n_maps = g.order**index
    if n_maps > DEFAULT_MAX_CANDIDATES:
        raise SizeLimit(f"|G|^(index) = {n_maps} induced elements exceed bound")
    check_buffer(n_maps * ng, 8, "induced map table")
    l = h_sub.position()[gamma.table[np.arange(ng), gamma._inv[reps[coset_of]]]]
    free = np.indices((g.order,) * index).reshape(index, n_maps).T  # product order
    maps_arr = g_action.action[l, free[:, coset_of]].astype(np.int64)
    # deterministic element order: lexicographic by value tuple
    order_key = np.lexsort(maps_arr.T[::-1])
    maps_arr = maps_arr[order_key]
    radix = g.order ** np.arange(ng - 1, -1, -1, dtype=np.int64)
    encodings = maps_arr @ radix
    if not np.all(np.diff(encodings) > 0):
        raise CounterexampleFound("induced map set has duplicates")

    def locate(arr: np.ndarray) -> np.ndarray:
        pos = lookup_sorted(encodings, arr @ radix)
        if (pos < 0).any():
            raise MatchFailure("operation left the induced map set")
        return pos

    # row i: the pointwise products maps[i] * maps[j] for every j
    group = group_table(n_maps, lambda r: locate(g.table[maps_arr[r][:, None], maps_arr]), ng)
    check_buffer(n_maps * ng * ng, 8, "induced action")
    action = locate(maps_arr[:, gamma.table.T]).T  # phi^s(t) = phi(ts)
    gamma_group = GammaGroup(gamma, group, action)
    maps = tuple(tuple(int(v) for v in row) for row in maps_arr)
    return InducedGammaGroup(gamma, h_sub, g_action, maps, gamma_group)


def map_group(gamma: FiniteGroup, g: FiniteGroup) -> InducedGammaGroup:
    """The full map group (induction from the trivial subgroup)."""
    h_sub = Subgroup(gamma, (gamma.identity,))
    h_group, _ = subgroup_as_group(h_sub)
    trivial = GammaGroup(h_group, g, np.arange(g.order)[None, :])
    return shapiro_induce(gamma, h_sub, trivial)


@dataclass(frozen=True)
class ShapiroReport:
    induced: InducedGammaGroup
    h1_induced: H1Set
    h1_subgroup: H1Set
    class_map: tuple[int, ...]  # induced class index -> subgroup class index


def shapiro_verify(gamma: FiniteGroup, h_sub: Subgroup, g_action: GammaGroup) -> ShapiroReport:
    """Exhibit H1(gamma, induced) = H1(H, G) through evaluation at the identity."""
    induced = shapiro_induce(gamma, h_sub, g_action)
    h1_big = cohomology.h1(induced.gamma_group)
    h1_small = cohomology.h1(g_action)
    # two members per class check that restriction is constant on classes;
    # restricting evaluates a member's maps on H (embedding order) at the identity
    sampled = [members[:2] for members in h1_big.members]
    at_identity = np.array([phi[gamma.identity] for phi in induced.maps])
    rows = at_identity[np.array([v for pair in sampled for v in pair])[:, list(h_sub.members)]]
    row_class = iter(h1_small.class_indices(rows).tolist())
    labels = [[next(row_class) for _ in pair] for pair in sampled]
    class_map = match_blocks(labels, range(h1_small.order), "restriction to H -> H1(H, G)")
    return ShapiroReport(induced, h1_big, h1_small, class_map)
