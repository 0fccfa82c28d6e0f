"""Fixed cosets, the orbit-kernel bijection, six-term exactness, and H2.

Degree-two machinery works over a presentation of an abelian module by
invariant factors. With the action convention of :mod:`cocycle.cohomology`
(``(a^g)^h = a^(hg)``, written additively below as a matrix action
``g . x = M_g x``), a normalized 2-cochain c is a 2-cocycle when

    g.c(h, k) - c(gh, k) + c(g, hk) - c(g, h) = 0   for all g, h, k.

H2 comes from the cycles of a Cayley graph, not from the bar complex: a
2-cocycle restricts to a gamma-map on them, fixed by its values on a few
relators, and every such map pulls back to a 2-cocycle (:func:`h2_central`). A
set-theoretic section beta of a central quotient B -> B/A with beta(e) = e
turns a quotient 1-cocycle gamma into

    c(h, g) = beta(hg)^-1 * beta(h) * beta(g)^h  in  A,

a 2-cocycle since A is central. The delta class is lift-independent
(checked per call with a second section) and exact at H1(B/A) (checked in
the verification suites).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cohomology, groups
from .cohomology import Cocycle, EquivariantHom, GammaGroup, H1Set, match_blocks
from .errors import (
    MAX_ORACLE_COCHAINS,
    CounterexampleFound,
    DimensionFailure,
    MatchFailure,
    SizeLimit,
    check_buffer,
)
from .groups import FiniteGroup, Subgroup, _powers, _word_tree, first_violation, orbit_members
from .groups import distinct_sorted, orbit_partition, product_chunks
from .snf import cokernel_invariant_factors, smith_normal_form


# ---------------------------------------------------------------------------
# coset spaces and the orbit-kernel bijection


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets bA of a stable subgroup, with the induced gamma action."""

    parent: GammaGroup
    sub: Subgroup
    cosets: tuple[tuple[int, ...], ...]
    coset_of: tuple[int, ...]
    gamma_action: tuple[tuple[int, ...], ...]  # [g][coset] -> coset
    fixed: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]  # B^Gamma-orbit partition of `fixed`
    restricted: GammaGroup
    inclusion: EquivariantHom


def fixed_cosets(parent: GammaGroup, sub: Subgroup) -> CosetSpace:
    """All gamma-fixed cosets bA and their orbit partition under B^Gamma."""
    restricted, inclusion = cohomology.restrict_to_subgroup(parent, sub)  # raises NotStable
    b = parent.base
    reps, coset_of = orbit_partition(b.table[:, list(sub.members)].T)  # column x is xA
    gamma_action = coset_of[parent.action[:, reps]]
    fixed = np.flatnonzero((gamma_action == np.arange(len(reps))).all(axis=0))
    invariants = list(cohomology.h0(parent).members)
    moved = coset_of[b.table[invariants][:, reps[fixed]]]  # [c, i] = c b_i A
    if not np.isin(moved, fixed).all():
        raise CounterexampleFound("translation by an invariant left the fixed cosets")
    return CosetSpace(
        parent,
        sub,
        orbit_members(coset_of),
        tuple(coset_of.tolist()),
        tuple(map(tuple, gamma_action.tolist())),
        tuple(fixed.tolist()),
        orbit_members(orbit_partition(moved)[1], fixed),
        restricted,
        inclusion,
    )


def coset_to_cocycle(space: CosetSpace, coset_index: int) -> Cocycle:
    """Descent cocycle g -> b^-1 * b^g of a fixed coset, valued in A."""
    if coset_index not in set(space.fixed):
        raise ValueError(f"coset {coset_index} is not gamma-fixed")
    values = _descent_rows(space, [coset_index])[0]
    return cohomology.make_cocycle(space.restricted, values.tolist())


def _descent_rows(space: CosetSpace, cosets) -> np.ndarray:
    """One gather: row i is g -> b^-1 * b^g, valued in A, for b the first
    element of fixed coset ``cosets[i]``."""
    parent, b = space.parent, space.parent.base
    reps = np.array([space.cosets[i][0] for i in cosets], dtype=np.intp)
    rows = space.sub.position()[b.table[b._inv[reps][:, None], parent.action[:, reps].T]]
    if (rows < 0).any():
        raise CounterexampleFound("descent value escaped the subgroup (stability bug)")
    return rows


@dataclass(frozen=True)
class OrbitKernelReport:
    """Verified bijection between coset orbits and kernel classes."""

    space: CosetSpace
    h1_sub: H1Set
    h1_parent: H1Set
    kernel_classes: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, ...], int], ...]  # (orbit, class index in H1(A))

    @property
    def n_orbits(self) -> int:
        return len(self.space.orbits)


def orbit_kernel_bijection(parent: GammaGroup, sub: Subgroup) -> OrbitKernelReport:
    """Match (B/A)^Gamma / B^Gamma with ker(H1(A) -> H1(B)), both sides computed
    independently; a mismatch raises BijectionFailure."""
    space = fixed_cosets(parent, sub)
    h1_sub = cohomology.h1(space.restricted)
    h1_parent = cohomology.h1(parent)
    cmap = cohomology.induced_map(space.inclusion, h1_sub, h1_parent)
    kernel = cohomology.kernel_of(cmap, h1_parent)
    # every fixed coset's descent row, labelled at once (ValueError on a non-cocycle)
    rows = _descent_rows(space, [i for orbit in space.orbits for i in orbit])
    row_class = iter(h1_sub.class_indices(rows).tolist())
    labels = [[next(row_class) for _ in orbit] for orbit in space.orbits]
    classes = match_blocks(labels, kernel, "fixed-coset orbits -> kernel classes")
    return OrbitKernelReport(space, h1_sub, h1_parent, kernel, tuple(zip(space.orbits, classes)))


# ---------------------------------------------------------------------------
# quotients and the six-term sequence


def quotient_gamma_group(
    parent: GammaGroup, sub: Subgroup
) -> tuple[GammaGroup, EquivariantHom]:
    """B/A with the induced action (bA)^g = b^g A; A must be normal and stable."""
    cohomology.check_stable(parent, sub)
    quot, proj = groups.quotient_group(parent.base, sub)  # normality check (NotNormal)
    _, reps = np.unique(proj.image, return_index=True)  # each coset's least element
    quotient = GammaGroup(parent.gamma, quot, np.asarray(proj.image)[parent.action[:, reps]])
    return quotient, EquivariantHom.make(parent, quotient, proj)


@dataclass(frozen=True)
class SixTermReport:
    nodes: tuple[str, ...]
    ok: tuple[bool, ...]
    details: tuple[str, ...]

    @property
    def exact(self) -> bool:
        return all(self.ok)

    @property
    def first_failure(self) -> str | None:
        return next((name for name, good in zip(self.nodes, self.ok) if not good), None)


def six_term_check(parent: GammaGroup, sub: Subgroup) -> SixTermReport:
    """Pointed-set exactness of 0 -> A^G -> B^G -> (B/A)^G -> H1(A) -> H1(B) -> H1(B/A)
    at the four interior nodes: image = preimage of the distinguished point."""
    space = fixed_cosets(parent, sub)
    quotient, proj = quotient_gamma_group(parent, sub)
    b = parent.base
    b_fixed = cohomology.h0(parent).members
    a_fixed_embedded = {space.inclusion.hom(a) for a in cohomology.h0(space.restricted).members}
    h1_sub = cohomology.h1(space.restricted)
    h1_parent = cohomology.h1(parent)
    h1_quot = cohomology.h1(quotient)
    inc_map = cohomology.induced_map(space.inclusion, h1_sub, h1_parent)
    proj_map = cohomology.induced_map(proj, h1_parent, h1_quot)

    nodes, oks, details = [], [], []

    # node B^Gamma: im(A^G) = ker(B^G -> (B/A)^G)
    identity_coset = space.coset_of[b.identity]
    ker1 = {x for x in b_fixed if space.coset_of[x] == identity_coset}
    nodes.append("B^Gamma")
    oks.append(ker1 == a_fixed_embedded)
    details.append(f"image {sorted(a_fixed_embedded)} vs kernel {sorted(ker1)}")

    # node (B/A)^Gamma: im(B^G) = delta0-preimage of the trivial H1(A) class
    image2 = {space.coset_of[x] for x in b_fixed}
    descent = h1_sub.class_indices(_descent_rows(space, space.fixed)).tolist()  # per fixed coset
    ker2 = {i for i, c in zip(space.fixed, descent) if c == h1_sub.distinguished}
    nodes.append("(B/A)^Gamma")
    oks.append(image2 == ker2)
    details.append(f"image {sorted(image2)} vs kernel {sorted(ker2)}")

    # node H1(A): im(delta0) = ker(H1(A) -> H1(B))
    image3 = set(descent)
    ker3 = set(cohomology.kernel_of(inc_map, h1_parent))
    nodes.append("H1(A)")
    oks.append(image3 == ker3)
    details.append(f"image {sorted(image3)} vs kernel {sorted(ker3)}")

    # node H1(B): im(H1(A)) = ker(H1(B) -> H1(B/A))
    image4 = set(inc_map)
    ker4 = set(cohomology.kernel_of(proj_map, h1_quot))
    nodes.append("H1(B)")
    oks.append(image4 == ker4)
    details.append(f"image {sorted(image4)} vs kernel {sorted(ker4)}")

    return SixTermReport(tuple(nodes), tuple(oks), tuple(details))


# ---------------------------------------------------------------------------
# abelian presentations and H2


@dataclass(frozen=True)
class AbelianPresentation:
    """Abelian module given by invariant factors and per-element action matrices.

    The module is Z/n_1 + ... + Z/n_k with n_1 | n_2 | ... | n_k (all > 1);
    ``matrices[g]`` acts on coordinate columns. Validated: the identity acts
    as the identity matrix, matrices compose with the group table modulo the
    factors (checked on the pairs (d, s) with s in ``gamma.short_generators()``,
    which implies every pair), and each matrix respects coordinate orders
    (n_t * M[s][t] == 0 mod n_s).
    """

    gamma: FiniteGroup
    factors: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        k = len(self.factors)
        _check_integers("invariant factors", self.factors)
        if any(f <= 1 for f in self.factors):
            raise ValueError("invariant factors must all exceed 1")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if len(self.matrices) != self.gamma.order:
            raise ValueError("one action matrix per gamma element required")
        for g, mat in enumerate(self.matrices):
            if len(mat) != k or any(len(row) != k for row in mat):
                raise ValueError(f"action matrix of gamma element {g} has wrong shape")
        entries = [x for m in self.matrices for r in m for x in r]
        _check_integers("action matrix entries", entries)
        mats = np.array(self.matrices, dtype=np.int64).reshape(self.gamma.order, k, k)
        orders = np.array(self.factors, dtype=np.int64)
        # Python ints where entry * factor or a k-term sum of entry * entry
        # could leave int64
        big = max((abs(int(x)) for x in entries), default=0)
        if big * int(max([*self.factors, k * big])) >= 1 << 63:
            mats, orders = mats.astype(object), orders.astype(object)
        row_orders = orders[:, None]
        bad = np.argwhere((mats * orders) % row_orders)
        if len(bad):
            g, s, t = bad[0]
            raise ValueError(f"matrix of gamma element {g} does not respect orders at ({s},{t})")
        if np.any((mats[self.gamma.identity] - np.eye(k, dtype=np.int64)) % row_orders):
            raise ValueError("identity of gamma must act as the identity matrix")
        # M(d*s) = M(d) M(s) for every d and generator s gives M(d*w) = M(d) M(w)
        # for every word w, by induction on its length
        gens = list(self.gamma.short_generators())
        check_buffer(2 * self.gamma.order * len(gens) * k * k, 8, "module composition check")
        products = np.einsum("dst,gtu->dgsu", mats, mats[gens]) % row_orders
        moved = mats[self.gamma.table[:, gens]] % row_orders
        bad = np.argwhere(np.any(products != moved, axis=(2, 3)))
        if len(bad):
            d, j = bad[0]
            raise ValueError(f"matrices do not compose at gamma pair ({d},{gens[j]})")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def module_order(self) -> int:
        return math.prod(self.factors)

    def apply(self, g: int, vec: tuple[int, ...]) -> tuple[int, ...]:
        mat = self.matrices[g]
        return tuple(
            sum(mat[s][t] * vec[t] for t in range(self.rank)) % self.factors[s]
            for s in range(self.rank)
        )


def _check_integers(name: str, values) -> None:
    """Refuse floats and booleans, which ``np.array(..., dtype=np.int64)`` would
    truncate, and ints outside int64, on which it would raise OverflowError."""
    bad = [x for x in values if isinstance(x, bool) or not isinstance(x, (int, np.integer))]
    if bad:
        raise ValueError(f"{name} must be integers, got {bad[0]!r}")
    bad = [x for x in values if not -(1 << 63) <= x < 1 << 63]
    if bad:
        raise ValueError(f"{name} must fit in 64 bits, got {bad[0]!r}")


def trivial_module(gamma: FiniteGroup, factors: tuple[int, ...]) -> AbelianPresentation:
    k = len(factors)
    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return AbelianPresentation(gamma, tuple(factors), (ident,) * gamma.order)


def _abelian_words(group: FiniteGroup, gens, exps) -> np.ndarray:
    """prod_j gens[j]^e_j for each exponent row e of ``exps``, by one gather
    through each generator's power list; exponents are read modulo its order."""
    exps = np.asarray(exps, dtype=np.int64)
    out = np.full(len(exps), group.identity, dtype=np.intp)
    for g, column in zip(gens, exps.T):
        powers = np.array(_powers(group, g))
        out = group.table[out, powers[column % len(powers)]]
    return out


def _decompose_abelian(group: FiniteGroup) -> tuple[tuple[int, ...], list[int]]:
    """Invariant factors (>1, ascending) and a generator element per factor."""
    if not group.is_abelian():
        raise ValueError("invariant-factor decomposition requires an abelian group")
    if group.order == 1:
        return (), []
    gens = list(group.generators())
    orders = [group.element_order(g) for g in gens]
    box = math.prod(orders)
    # per box entry: np.indices and kills (len(gens) each) and three _abelian_words gathers
    check_buffer(box * (2 * len(gens) + 3), 8, "relation search")
    exps = np.indices(orders).reshape(len(gens), box).T  # rows in itertools.product order
    kills = exps[_abelian_words(group, gens, exps) == group.identity][1:]  # row 0 is zero
    # diag(orders) is among the relations, so working mod their lcm loses no relation
    relations = np.concatenate([np.diag(orders), kills]).T.tolist()
    factors, lifts, _ = cokernel_invariant_factors(relations, math.lcm(*orders))
    return tuple(factors.tolist()), _abelian_words(group, gens, lifts).tolist()


@dataclass(frozen=True)
class ModuleBridge:
    """Presentation of a concrete abelian gamma-subgroup plus coordinate maps."""

    presentation: AbelianPresentation
    to_coords: dict[int, tuple[int, ...]]  # parent element index -> coordinates
    from_coords: dict[tuple[int, ...], int]


def presentation_of_subgroup(parent: GammaGroup, sub: Subgroup) -> ModuleBridge:
    """Decompose a stable abelian subgroup and express the action in coordinates."""
    restricted, inclusion = cohomology.restrict_to_subgroup(parent, sub)
    group = restricted.base
    factors, gen_elements = _decompose_abelian(group)
    vecs = np.indices(factors).reshape(len(factors), math.prod(factors)).T  # product order
    local = _abelian_words(group, gen_elements, vecs)  # the element with coordinates vecs[i]
    if not np.array_equal(np.sort(local), np.arange(group.order)):
        raise DimensionFailure("invariant-factor coordinates do not enumerate the module")
    coords = np.empty_like(vecs)
    coords[local] = vecs
    # matrices[g][s][t]: coordinate s of generator t moved by g
    matrices = coords[restricted.action[:, gen_elements]].transpose(0, 2, 1).tolist()
    pres = AbelianPresentation(parent.gamma, factors, tuple(tuple(map(tuple, m)) for m in matrices))
    embedded = np.asarray(inclusion.hom.image)[local].tolist()
    vec_keys = list(map(tuple, vecs.tolist()))
    return ModuleBridge(pres, dict(zip(embedded, vec_keys)), dict(zip(vec_keys, embedded)))


@dataclass(frozen=True)
class H2Group:
    """H2 as an abelian group: invariant factors plus generating 2-cocycles.

    Generators are normalized 2-cochains: flat integer vectors over the pairs
    (g, h) of non-identity elements, row-major, k coordinates each.
    :meth:`class_of` restricts a 2-cocycle to the relator ``cycles`` (relators x |gamma| x
    |gens| signed edge counts on the Cayley graph over ``gens``) and reads its class as
    :func:`h2_central` does: with N the exponent, ``v_inv`` and ``scale`` = diag(N / gcd(D_ii, N))
    of its last Smith form give S^-1 V^-1 F, and ``coords`` maps those with S < N to the factors.
    """

    gamma: FiniteGroup
    presentation: AbelianPresentation
    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    gens: tuple[int, ...] = field(default=(), repr=False, compare=False)
    cycles: np.ndarray | None = field(default=None, repr=False, compare=False)
    v_inv: np.ndarray | None = field(default=None, repr=False, compare=False)
    scale: np.ndarray | None = field(default=None, repr=False, compare=False)
    coords: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def class_of(self, cochain) -> tuple[int, ...]:
        """Coordinates in the sum of Z/f_i of a normalized 2-cocycle's class.

        Generator i maps to the i-th unit vector; the coordinates are all
        zero exactly when the cochain is a coboundary. Raises ValueError on
        a cochain that is not a 2-cocycle.
        """
        c = _full_cochain(self.gamma, self.presentation.rank, cochain)
        if not _is_cocycle(self.gamma, self.presentation, c):
            raise ValueError("cochain is not a 2-cocycle")
        if not self.invariant_factors:
            return ()
        if self.cycles is None:
            raise ValueError("this H2Group carries no class map")
        # f(z_i) = sum of z_i[(y, s)] c(y, s): the A-part of z_i's word in A x_c gamma
        values = np.einsum("iyj,yjt->it", self.cycles, c[:, list(self.gens)])
        exponent = self.presentation.factors[-1]
        y = _lattice_coords(self.v_inv, self.scale, values.reshape(-1, 1), exponent)
        if y is None:
            raise CounterexampleFound("a 2-cocycle restricted to a non-equivariant map")
        return tuple((self.coords @ y[self.scale < exponent, 0] % self.invariant_factors).tolist())


def _lattice_coords(v_inv, scale, vecs, exponent) -> np.ndarray | None:
    """S^-1 V^-1 vecs mod N for every column of vecs, or None when one is off
    the lattice V S Z^n + N Z^n (V^-1 is exact mod N, so coordinate i is exact
    mod N / scale[i]). The product is over Python ints where int64 could overflow."""
    if int(v_inv.max(initial=0)) * int(np.abs(vecs).sum(axis=0).max(initial=0)) >= 1 << 63:
        v_inv = v_inv.astype(object)
    t = v_inv @ vecs
    if (t % scale[:, None]).any():
        return None
    return t // scale[:, None] % exponent


def _nonidentity(gamma: FiniteGroup) -> list[int]:
    return [g for g in range(gamma.order) if g != gamma.identity]


def _full_cochain(gamma: FiniteGroup, k: int, vec) -> np.ndarray:
    """A flat normalized 2-cochain as an (n, n, k) array, zero where an argument is e."""
    g1, n = _nonidentity(gamma), gamma.order
    if len(vec) != len(g1) ** 2 * k:
        raise ValueError(f"expected a 2-cochain of length {len(g1) ** 2 * k}")
    check_buffer(2 * n * n * k, 8, "2-cochain")  # the array and the flat vector's copy
    c = np.zeros((n, n, k), dtype=np.int64)
    c[np.ix_(g1, g1)] = np.asarray(vec, dtype=np.int64).reshape(len(g1), len(g1), k)
    return c


def _is_cocycle(gamma: FiniteGroup, pres: AbelianPresentation, c: np.ndarray) -> bool:
    """Whether D(g,h,x) = g.c(h,x) - c(gh,x) + c(g,hx) - c(g,h) vanishes modulo the factors.

    It is checked for x in ``short_generators()`` only, on |gamma|^2 |X| k
    values: since d(dc) = 0, D(g,h,xy) = g.D(h,x,y) - D(gh,x,y) + D(g,hx,y) + D(g,h,x),
    so by induction on word length D vanishes at every x once it does on X.
    Rows g come in :func:`~cocycle.groups.product_chunks`, each row D(g) and three terms.
    """
    n, k, xs = gamma.order, pres.rank, list(gamma.short_generators())
    mats = np.array(pres.matrices, dtype=np.int64).reshape(n, k, k)
    cx, hx = c[:, xs], gamma.table[:, xs]  # c(h, x) and hx
    for g, _ in product_chunks((n,), max(4 * n * len(xs) * k, 1), "2-cocycle identity"):
        defect = np.einsum("gst,hxt->ghxs", mats[g], cx) - cx[gamma.table[g]]  # - c(gh, x)
        defect += c[g[:, None, None], hx] - c[g, :, None]  # c(g, hx) - c(g, h)
        if (defect % pres.factors).any():
            return False
    return True


def _check_same_group(gamma: FiniteGroup, pres: AbelianPresentation) -> None:
    """ValueError unless the presentation is over gamma, or over an equal table."""
    if gamma is not pres.gamma:
        check_buffer(gamma.order**2, 1, "group table comparison")
        if not np.array_equal(gamma.table, pres.gamma.table):
            raise ValueError("the presentation is over a different group")


def h2_central(gamma: FiniteGroup, pres: AbelianPresentation) -> H2Group:
    """H2 = Hom_gamma(Z1, A) / im A^X, Z1 the Cayley graph's cycles over X = short_generators().

    Relators come by deduction (Holt, J. Symbolic Comput. 1, 1985; Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 5, 7.6): tree edges carry 0; a scan f(y.r_i) = M(y)
    tau_i with one unknown letter deduces its edge's tail phi(e), linear in the relator values tau;
    with none, the least unknown edge's cycle is a relator. The y.r_i span Z1, so the scans over
    Z/N (N the exponent), reduced by Smith forms, give the gamma-maps as V S Z^tk + N Z^tk.
    """
    _check_same_group(gamma, pres)
    k, n, e = pres.rank, gamma.order, gamma.identity
    if k == 0 or n == 1:
        return H2Group(gamma, pres, (), ())
    gens, exponent = gamma.short_generators(), pres.factors[-1]
    r, orders = len(gens), np.array(pres.factors, dtype=np.int64)[:, None]
    # letter j < r: y -> y x_j along edge (y, x_j) = y r + j; r + j: back along (y x_j^-1, x_j)
    moves = gamma.table[:, [*gens, *gamma._inv[list(gens)]]].astype(np.intp)
    crossed = np.concatenate([np.arange(n * r).reshape(n, r), moves[:, r:] * r + range(r)], 1)
    parent = {new: (prev, gens.index(s)) for new, prev, s in _word_tree(gamma.table, e, gens)}
    known = np.isin(np.arange(n * r), [prev * r + j for prev, j in parent.values()])  # the tree

    def climb(y):  # the letters of y's tree path, from y back to e
        while y != e:
            y, j = parent[y]
            yield j

    dtype = np.int64 if (2 * n + 2) * exponent < 1 << 63 else object  # a sum along a relator
    mats = (np.array(pres.matrices, dtype=np.int64).reshape(n, k, k) % orders).astype(dtype)
    words, walks, scans, cycles, phi = [], [], [], [], np.zeros((n * r, k, 0), dtype=dtype)

    def scan(i, ys):  # M(y) tau_i minus the tails along y.r_i, mod the orders
        out = np.zeros((len(ys), k, phi.shape[2]), dtype=dtype)
        out[:, :, i * k : i * k + k] = mats[ys]
        for j, column in zip(words[i], walks[i][ys].T):
            out += phi[column] if j >= r else -phi[column]
        return out % orders

    while not known.all():
        found = np.count_nonzero(known)
        for i, ys in enumerate(scans):  # the starts of r_i with two or more unknown letters
            unknown = ~known[walks[i][ys]]
            count = unknown.sum(axis=1)
            hit = np.flatnonzero(count == 1)
            pos = unknown[hit].argmax(axis=1)
            deduced, first = np.unique(walks[i][ys[hit], pos], return_index=True)
            hit, pos = ys[hit[first]], pos[first]  # each deduced tail is still zero in its scan
            phi[deduced] = np.where(words[i][pos] < r, 1, -1)[:, None, None] * scan(i, hit) % orders
            known[deduced], scans[i] = True, ys[count > 1]
        if np.count_nonzero(known) == found:  # the least unknown edge's cycle is a new relator
            y, j = divmod(int(np.argmin(known)), r)
            words.append(np.array([*climb(y)][::-1] + [j] + [x + r for x in climb(moves[y, j])]))
            check_buffer(n * (sum(map(len, words)) + r * k * k * len(words)), 8, "H2 relator tails")
            nodes = itertools.accumulate(words[-1][:-1], lambda y, j: moves[y, j], initial=range(n))
            walks.append(crossed[np.stack([*nodes], axis=1), words[-1]])
            scans.append(np.arange(n))  # every start is open; then r_i's signed edge counts
            cycles.append(np.bincount(walks[-1][e], np.where(words[-1] < r, 1, -1), n * r))
            phi = np.concatenate([phi, np.zeros((n * r, k, k), dtype=dtype)], axis=2)
    t, tk, moduli = len(words), phi.shape[2], np.tile(pres.factors, len(words))
    held = np.zeros((tk, tk), dtype=dtype)  # tk rows or more, so that D has tk entries
    for i in range(t):  # one relator's scans, scaled, a term, and the Smith form of 12 copies
        check_buffer((3 * n * k + 12 * (len(held) + n * k)) * tk, 8, "H2 relator scans")
        rows = (scan(i, range(n)) * (exponent // orders)).reshape(-1, tk)
        held = np.concatenate([held, rows[rows.any(axis=1)]])
        if len(held) > n * k or i == t - 1:  # the rows of D V^-1 span the block's
            diag, v, v_inv = smith_normal_form(held.tolist(), exponent)
            held = (diag[:, None] * v_inv % exponent).astype(dtype)
    scale = exponent // np.gcd(diag, exponent)
    cycles = np.array(cycles, dtype=np.int64).reshape(t, n, r)
    # a in A^X maps to r_i -> sum of r_i[(y, s)] y.a_s; orders below N are relations too
    image = np.einsum("iyj,yut->jtiu", cycles, mats).reshape(-1, tk)
    image = np.concatenate([image, np.diag(moduli)[moduli < exponent]])
    columns = _lattice_coords(v_inv, scale, image.T, exponent)
    if columns is None:
        raise CounterexampleFound("a relation escaped the gamma-maps")
    # N Z^tk is diag(N / S) in lattice coordinates, which kills each one with S = N
    live = scale < exponent
    relations = np.concatenate([columns[live], np.diag(exponent // scale[live])], axis=1)
    factors, lifts, coords = cokernel_invariant_factors(relations.tolist(), exponent)
    values = v[:, live] @ (scale[live, None] * lifts.T % exponent) % exponent  # V S lifts mod N
    wide = int(phi.max(initial=0)) * int(values.sum(axis=0).max(initial=0)) >= 1 << 63
    tails = ((phi.astype(object) if wide else phi) @ values % orders).astype(np.int64)
    generators, g1 = (), _nonidentity(gamma)
    for f in tails.transpose(2, 0, 1):  # f on every edge, zero on the tree
        check_buffer((4 + len(generators)) * n * n * k, 8, "H2 pull-back")  # c, copy, list, tuples
        c = np.zeros((n, n, k), dtype=np.int64)  # c[h, g] = c(g, h)
        for new, (prev, j) in parent.items():  # c(g, ys) = c(g, y) + f(gy, s) on a tree edge
            c[new] = (c[prev] + f[gamma.table[:, prev].astype(np.intp) * r + j]) % orders[:, 0]
        if not _is_cocycle(gamma, pres, c.transpose(1, 0, 2)):
            raise CounterexampleFound("reported H2 generator fails the 2-cocycle identity")
        generators += (tuple(c.transpose(1, 0, 2)[np.ix_(g1, g1)].ravel().tolist()),)
    factors = tuple(factors.tolist())
    return H2Group(gamma, pres, factors, generators, gens, cycles, v_inv, scale, coords)


def _raw_differential(gamma: FiniteGroup, pres: AbelianPresentation, n: int) -> np.ndarray:
    """Dense d_n on raw cochains (every argument tuple, row-major) by the face formula."""
    ng, k = gamma.order, pres.rank
    d = np.zeros((ng ** (n + 1) * k, ng**n * k), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)
    for r, args in enumerate(itertools.product(range(ng), repeat=n + 1)):
        faces = [(args[1:], np.array(pres.matrices[args[0]], dtype=np.int64))]
        for i in range(1, n + 1):
            merged = args[: i - 1] + (gamma.mul(args[i - 1], args[i]),) + args[i + 1 :]
            faces.append((merged, (-1) ** i * eye))
        faces.append((args[:-1], (-1) ** (n + 1) * eye))
        for face, coef in faces:
            c = int(np.ravel_multi_index(face, (ng,) * n))
            d[r * k : r * k + k, c * k : c * k + k] += coef
    return d


def h2_brute_force_order(gamma: FiniteGroup, pres: AbelianPresentation) -> int:
    """Oracle: |ker d2| / |im d1| over all raw (non-normalized) 2-cochains.

    Every raw 2-cochain is tested against d2 and every raw 1-cochain mapped
    by d1, chunk by chunk; coboundaries are counted as distinct mixed-radix keys.
    """
    _check_same_group(gamma, pres)
    ng, k = gamma.order, pres.rank
    if k == 0 or ng == 1:
        return 1
    n_cochains = pres.module_order ** (ng * ng)
    if n_cochains > MAX_ORACLE_COCHAINS:
        raise SizeLimit(f"{n_cochains} raw 2-cochains exceed oracle limit {MAX_ORACLE_COCHAINS}")
    d1, d2 = _raw_differential(gamma, pres, 1), _raw_differential(gamma, pres, 2)
    moduli1, moduli2, moduli3 = (np.tile(pres.factors, ng**n) for n in (1, 2, 3))
    cocycle_count = 0
    # 16 times the row width, as the GL scan: each chunk holds several arrays of its size
    for _, cochains in product_chunks(moduli2.tolist(), 16 * len(moduli3), "raw 2-cochain chunk"):
        defects = (cochains @ d2.T) % moduli3
        cocycle_count += int(np.count_nonzero(~defects.any(axis=1)))
    keys = [
        np.ravel_multi_index(tuple(((fs @ d1.T) % moduli2).T), moduli2)
        for _, fs in product_chunks(moduli1.tolist(), 16 * len(moduli2), "raw 1-cochain chunk")
    ]
    coboundary_count = len(distinct_sorted(np.concatenate(keys)))
    if cocycle_count % coboundary_count:
        raise CounterexampleFound("coboundary count does not divide the cocycle count")
    return cocycle_count // coboundary_count


# ---------------------------------------------------------------------------
# connecting map into H2


@dataclass(frozen=True)
class DeltaResult:
    """delta of a quotient 1-class: a normalized 2-cochain over the presentation."""

    bridge: ModuleBridge
    cochain: tuple[int, ...]
    trivial: bool


def _section(parent: GammaGroup, proj: EquivariantHom, values, greatest: bool) -> list[int]:
    """beta(g): the least (or greatest) preimage of values[g], and e at the identity."""
    image = np.asarray(proj.hom.image)
    _, first = np.unique(image[::-1] if greatest else image, return_index=True)
    section = (len(image) - 1 - first if greatest else first)[np.asarray(values)]
    section[parent.gamma.identity] = parent.base.identity
    return section.tolist()


def _factor_set(parent: GammaGroup, section: list[int]) -> np.ndarray:
    """c(h, g) = beta(hg)^-1 beta(h) beta(g)^h, indexed [h, g]."""
    b, beta = parent.base, np.array(section, dtype=np.intp)
    check_buffer(parent.gamma.order**2, 8, "factor set")
    moved = b.table[beta[:, None], parent.action[:, beta]]  # beta(h) beta(g)^h
    return b.table[b._inv[beta[parent.gamma.table]], moved].astype(np.intp)


def _cochain_vector(gamma: FiniteGroup, bridge: ModuleBridge, factor_set: np.ndarray) -> list[int]:
    g1 = _nonidentity(gamma)
    return [x for v in factor_set[g1][:, g1].ravel().tolist() for x in bridge.to_coords[v]]


def connecting_delta(
    parent: GammaGroup, central: Subgroup, quotient_cocycle: Cocycle
) -> DeltaResult:
    """delta: H1(gamma, B/A) -> H2(gamma, A) for a central stable subgroup A.

    Lifts the quotient cocycle through the lexicographically least section
    (identity at the identity), forms the factor set
    c(h,g) = beta(hg)^-1 beta(h) beta(g)^h, and checks: values land in A,
    the 2-cocycle identity holds, and the class does not depend on the lift.
    """
    b, members = parent.base, list(central.members)
    bad = first_violation(b.conjugation()[:, members] == members)
    if bad is not None:
        x, a = bad[0], members[bad[1]]
        raise ValueError(f"subgroup is not central: {a} and {x} do not commute")
    quotient, proj = quotient_gamma_group(parent, central)
    structurally_same = (
        quotient_cocycle.parent.gamma is parent.gamma
        and quotient_cocycle.parent.base.order == quotient.base.order
        and np.array_equal(quotient_cocycle.parent.base.table, quotient.base.table)
        and np.array_equal(quotient_cocycle.parent.action, quotient.action)
    )
    if not structurally_same:
        raise ValueError("quotient cocycle must live over the induced quotient action")
    bridge = presentation_of_subgroup(parent, central)
    values = quotient_cocycle.values
    section = _section(parent, proj, values, greatest=False)
    fset = _factor_set(parent, section)
    gamma, e = parent.gamma, parent.gamma.identity
    escaped = central.position()[fset] < 0
    unnormalized = np.zeros_like(escaped)
    unnormalized[e], unnormalized[:, e] = fset[e] != b.identity, fset[:, e] != b.identity
    bad = first_violation(~(escaped | unnormalized))
    if bad is not None and escaped[bad]:
        raise CounterexampleFound("factor set escaped the central subgroup")
    if bad is not None:
        raise CounterexampleFound("factor set is not normalized")
    # 2-cocycle identity, checked directly in the group; x in X suffices (see _is_cocycle)
    xs, table = list(gamma.short_generators()), gamma.table
    check_buffer(gamma.order**2 * len(xs), 8, "2-cocycle identity")
    lhs = b.table[fset[table][:, :, xs], fset[:, :, None]]  # c(gh, x) c(g, h)
    rhs = b.table[parent.action[:, fset[:, xs]], fset[:, table[:, xs]]]  # c(h, x)^g c(g, hx)
    if not np.array_equal(lhs, rhs):
        raise CounterexampleFound("factor set fails the 2-cocycle identity")
    vec = _cochain_vector(parent.gamma, bridge, fset)
    second = _factor_set(parent, _section(parent, proj, values, greatest=True))
    vec2 = _cochain_vector(parent.gamma, bridge, second)
    h2 = h2_central(parent.gamma, bridge.presentation)
    try:
        cls, cls2 = h2.class_of(vec), h2.class_of(vec2)
    except ValueError as exc:
        raise MatchFailure(f"factor set off the H2 cocycle lattice: {exc}") from exc
    if cls2 != cls:
        raise CounterexampleFound("delta class depends on the choice of section")
    return DeltaResult(bridge, tuple(vec), not any(cls))
