"""Reference H2 routes: the normalized bar complex and the Cayley graph's cycles.

``h2_central`` is the route the package ran before it used the Cayley
graph's cycle lattice: one Smith form of the order-scaled d2 gives the
2-cocycle lattice, in which im(d1) + orders are the relations. Its d_n come
from ``_normalized_differential`` and its moduli from ``_moduli``; the
suite checks both against ``normalized_d_sparse``, a pair-by-pair
construction. ``is_coboundary`` decides membership in im(d1) + orders by
one augmented integer solve. ``cayley_h2_central`` is the route the package
ran before it found relators: a Gamma-map on all m = |Gamma|(|X| - 1) + 1
fundamental cycles of the Cayley graph, from one dense |X| m k x m k
equivariance system; its ``H2Group`` carries a class map over those cycles.
``tests/test_h2.py`` compares the package's route against these results.
``h2_brute_force_order`` is the dense brute force the package ran before it
streamed the cochains in chunks: every raw 2-cochain in one array,
coboundaries counted as a set of tuples. Smith forms come from
``smith_oracle``, not from the package's ``cocycle.snf``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from cocycle.errors import CounterexampleFound, SizeLimit
from cocycle.exactness import AbelianPresentation, H2Group
from cocycle.groups import FiniteGroup, _word_tree
from smith_oracle import IntMatrix, cokernel_invariant_factors, smith_mod, smith_normal_form

#: Ceiling on rows * cols of the order-scaled d2 that the bar route factors: Z/9 on a
#: rank-one module is 512 x 576, and Z/10 is past it, so larger groups run on the package only.
MAX_ORACLE_ENTRIES = 1 << 19


def _nonidentity(gamma: FiniteGroup) -> list[int]:
    return [g for g in range(gamma.order) if g != gamma.identity]


def normalized_d_sparse(gamma: FiniteGroup, pres: AbelianPresentation):
    """d1 (dense rows) and d2 (sparse rows) on normalized cochains, built pair by pair.

    C1 coordinates: (x, t) for x != e; C2: (g, h, t) with g, h != e;
    C3: (g, h, k, t), all != e. Row-major over the listed index order.
    """
    k = pres.rank
    g1 = _nonidentity(gamma)
    pos1 = {x: i for i, x in enumerate(g1)}
    pairs = [(g, h) for g in g1 for h in g1]
    pos2 = {p: i for i, p in enumerate(pairs)}
    d1 = [[0] * (len(g1) * k) for _ in range(len(pairs) * k)]
    for (g, h) in pairs:
        row0 = pos2[(g, h)] * k
        mat = pres.matrices[g]
        for s in range(k):
            for t in range(k):
                d1[row0 + s][pos1[h] * k + t] += mat[s][t]
        gh = gamma.mul(g, h)
        if gh != gamma.identity:
            for s in range(k):
                d1[row0 + s][pos1[gh] * k + s] -= 1
        for s in range(k):
            d1[row0 + s][pos1[g] * k + s] += 1
    d2_rows: list[list[tuple[int, int]]] = []
    moduli3: list[int] = []
    for g in g1:
        mat = pres.matrices[g]
        for h in g1:
            gh = gamma.mul(g, h)
            for x in g1:
                hx = gamma.mul(h, x)
                for s in range(k):
                    entries: dict[int, int] = {}
                    for t in range(k):
                        if mat[s][t]:
                            col = pos2[(h, x)] * k + t
                            entries[col] = entries.get(col, 0) + mat[s][t]
                    if gh != gamma.identity:
                        col = pos2[(gh, x)] * k + s
                        entries[col] = entries.get(col, 0) - 1
                    if hx != gamma.identity:
                        col = pos2[(g, hx)] * k + s
                        entries[col] = entries.get(col, 0) + 1
                    col = pos2[(g, h)] * k + s
                    entries[col] = entries.get(col, 0) - 1
                    d2_rows.append(sorted(entries.items()))
                    moduli3.append(pres.factors[s])
    moduli1 = [pres.factors[t] for _ in g1 for t in range(k)]
    moduli2 = [pres.factors[t] for _ in pairs for t in range(k)]
    return d1, d2_rows, moduli1, moduli2, moduli3, pairs


def mat_vec(a: IntMatrix, x: list[int]) -> list[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


class IntegerSolver:
    """Factor a matrix once, then answer many M x = b queries."""

    def __init__(self, m: IntMatrix):
        self.rows = len(m)
        self.cols = len(m[0]) if self.rows else 0
        self.dec = smith_normal_form(m) if self.rows and self.cols else None

    def solve(self, b: list[int]) -> list[int] | None:
        if self.rows == 0:
            return [0] * self.cols
        if self.cols == 0:
            return [] if all(v == 0 for v in b) else None
        dec = self.dec
        ub = mat_vec(dec.u, list(b))
        y = [0] * self.cols
        rank = min(self.rows, self.cols)
        for i in range(self.rows):
            di = dec.d[i][i] if i < rank else 0
            if di == 0:
                if ub[i] != 0:
                    return None
            else:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
        return mat_vec(dec.v, y)


def solve_integer(m: IntMatrix, b: list[int]) -> list[int] | None:
    """Some integer solution x of M x = b, or None when none exists."""
    return IntegerSolver(m).solve(b)


def _normalized_differential(gamma: FiniteGroup, pres: AbelianPresentation, n: int):
    """d_n on normalized cochains: dense integer rows, C^n -> C^(n+1).

    C^n coordinates are (g_1, ..., g_n, t) with every g_i != e, row-major;
    coordinate t has modulus factors[t], for rows and columns alike. Terms
    with an identity argument vanish in

        (d f)(g_1, ..., g_{n+1}) = g_1.f(g_2, ..., g_{n+1})
            + sum_i (-1)^i f(..., g_i g_{i+1}, ...) + (-1)^(n+1) f(g_1, ..., g_n).
    """
    k, e = pres.rank, gamma.identity
    g1 = _nonidentity(gamma)
    index = {x: i for i, x in enumerate(g1)}

    def column(args) -> int | None:
        """First coordinate of f(args); None when f(args) vanishes."""
        if e in args:
            return None
        pos = 0
        for a in args:
            pos = pos * len(g1) + index[a]
        return pos * k

    rows = []
    for args in itertools.product(g1, repeat=n + 1):
        block = [[0] * (len(g1) ** n * k) for _ in range(k)]
        col, mat = column(args[1:]), pres.matrices[args[0]]
        for s in range(k):
            for t in range(k):
                block[s][col + t] += mat[s][t]
        faces = [args[:i] + (gamma.mul(args[i], args[i + 1]),) + args[i + 2 :] for i in range(n)]
        for i, face in enumerate(faces + [args[:n]]):
            col = column(face)
            if col is not None:
                for s in range(k):
                    block[s][col + s] += (-1) ** (i + 1)
        rows.extend(block)
    return rows


def _lattice_coords(v_inv, scale, vec) -> list[int] | None:
    """S^-1 V^-1 vec, or None when vec is off the lattice V S Z^n + N Z^n
    (V^-1 is exact mod N, so coordinate i is exact mod N / scale[i])."""
    out = []
    for row, s in zip(v_inv, scale):
        t = sum(c * x for c, x in zip(row, vec))
        if t % s:
            return None
        out.append(t // s)
    return out


def _moduli(gamma: FiniteGroup, pres: AbelianPresentation, n: int) -> list[int]:
    """The modulus of each normalized n-cochain coordinate."""
    return list(pres.factors) * (gamma.order - 1) ** n


def h2_central(
    gamma: FiniteGroup,
    pres: AbelianPresentation,
    max_entries: int = MAX_ORACLE_ENTRIES,
) -> H2Group:
    """H2 by integer linear algebra on the normalized bar complex.

    With N the module exponent, scaling each d2 row by N over its modulus
    turns the cocycle congruences d2 c = 0 mod orders into E c = 0 mod N.
    One Smith form U E V = D over Z/N then gives the 2-cocycle lattice as
    V S Z^d2 + N Z^d2, S = diag(N / gcd(D_ii, N)). The columns of d1 and
    orders * Z^d2, in that basis, are the relations of H2; a second Smith
    form over Z/N reads off the invariant factors and the generator lifts.
    """
    k = pres.rank
    n1 = gamma.order - 1
    if k == 0 or n1 == 0:
        return H2Group(gamma, pres, (), ())
    d2_dim, d3_dim = n1 * n1 * k, n1 * n1 * n1 * k
    if d3_dim * (d2_dim + d3_dim) > max_entries:
        raise SizeLimit(
            f"H2 matrix of {d3_dim}x{d2_dim + d3_dim} entries exceeds bound {max_entries}"
        )
    d1, d2 = _normalized_differential(gamma, pres, 1), _normalized_differential(gamma, pres, 2)
    moduli2, moduli3 = _moduli(gamma, pres, 2), _moduli(gamma, pres, 3)
    exponent = pres.factors[-1]
    dec = smith_mod([[c * (exponent // n) for c in row] for row, n in zip(d2, moduli3)], exponent)
    scale = [exponent // math.gcd(x, exponent) for x in dec.diagonal()]
    columns = [list(col) for col in zip(*d1)]
    columns += [[m if i == j else 0 for i, m in enumerate(moduli2)] for j in range(d2_dim)]
    relation_cols = []
    for col in columns:
        y = _lattice_coords(dec.v_inv, scale, col)
        if y is None:
            raise CounterexampleFound("im(d1) escaped the 2-cocycle lattice (differential bug)")
        relation_cols.append(y)
    # N Z^d2 lies in orders * Z^d2; in lattice coordinates it is diag(N / scale)
    relation_cols += [
        [exponent // s if i == j else 0 for i, s in enumerate(scale)] for j in range(d2_dim)
    ]
    factors, lifts, _ = cokernel_invariant_factors([*zip(*relation_cols)], d2_dim, exponent)
    generators = []
    for lift in lifts:
        vec = [
            sum(v * s * y for v, s, y in zip(dec.v[i], scale, lift)) % moduli2[i]
            for i in range(d2_dim)
        ]
        for row, n in zip(d2, moduli3):
            if sum(c * x for c, x in zip(row, vec)) % n:
                raise CounterexampleFound("reported H2 generator fails the 2-cocycle identity")
        generators.append(tuple(vec))
    return H2Group(gamma, pres, tuple(factors), tuple(generators))


def is_coboundary(gamma: FiniteGroup, pres: AbelianPresentation, vec) -> bool:
    """Whether a normalized 2-cochain lies in im(d1) + orders."""
    d1, _, _, moduli2, _, _ = normalized_d_sparse(gamma, pres)
    dim2 = len(moduli2)
    if dim2 == 0:
        return True
    aug = [d1[i][:] + [moduli2[i] if i == j else 0 for j in range(dim2)] for i in range(dim2)]
    return solve_integer(aug, list(vec)) is not None


def h2_brute_force_order(gamma: FiniteGroup, pres: AbelianPresentation, limit: int = 1 << 16) -> int:
    """Oracle: |ker d2| / |im d1| over all raw (non-normalized) 2-cochains."""
    ng, k = gamma.order, pres.rank
    if k == 0 or ng == 1:
        return 1
    n_cochains = pres.module_order ** (ng * ng)
    if n_cochains > limit:
        raise SizeLimit(f"{n_cochains} raw 2-cochains exceed oracle limit {limit}")
    dim2 = ng * ng * k
    pairs = [(g, h) for g in range(ng) for h in range(ng)]
    pos2 = {p: i for i, p in enumerate(pairs)}
    d2 = np.zeros((ng * ng * ng * k, dim2), dtype=np.int64)
    moduli3 = []
    row = 0
    for g in range(ng):
        mat = np.array(pres.matrices[g], dtype=np.int64)
        for h in range(ng):
            gh = gamma.mul(g, h)
            for x in range(ng):
                hx = gamma.mul(h, x)
                d2[row : row + k, pos2[(h, x)] * k : pos2[(h, x)] * k + k] += mat
                for s in range(k):
                    d2[row + s, pos2[(gh, x)] * k + s] -= 1
                    d2[row + s, pos2[(g, hx)] * k + s] += 1
                    d2[row + s, pos2[(g, h)] * k + s] -= 1
                moduli3.extend(pres.factors)
                row += k
    moduli3 = np.array(moduli3, dtype=np.int64)
    moduli_flat = np.array([pres.factors[t] for _ in pairs for t in range(k)], dtype=np.int64)
    ranges = [range(int(m)) for m in moduli_flat]
    cochains = np.array(list(itertools.product(*ranges)), dtype=np.int64)
    defects = (cochains @ d2.T) % moduli3[None, :]
    cocycle_count = int(np.sum(~np.any(defects, axis=1)))
    # coboundaries of all raw 1-cochains
    dim1 = ng * k
    d1 = np.zeros((dim2, dim1), dtype=np.int64)
    for g in range(ng):
        mat = np.array(pres.matrices[g], dtype=np.int64)
        for h in range(ng):
            r0 = pos2[(g, h)] * k
            d1[r0 : r0 + k, h * k : h * k + k] += mat
            gh = gamma.mul(g, h)
            for s in range(k):
                d1[r0 + s, gh * k + s] -= 1
                d1[r0 + s, g * k + s] += 1
    ranges1 = [range(pres.factors[t]) for _ in range(ng) for t in range(k)]
    fs = np.array(list(itertools.product(*ranges1)), dtype=np.int64)
    images = (fs @ d1.T) % moduli_flat[None, :]
    coboundary_count = len({tuple(map(int, row)) for row in images})
    if cocycle_count % coboundary_count:
        raise CounterexampleFound("coboundary count does not divide the cocycle count")
    return cocycle_count // coboundary_count


def cayley_cycles(gamma: FiniteGroup, gens: tuple[int, ...]):
    """BFS tree, non-tree edges, fundamental cycles and their translates in the Cayley graph.

    Edge (y, s) runs from y to ys and has index y * |gens| + j for s = gens[j].
    ``tree`` lists (y, parent, edge) with parents first. ``cycles[i]`` is
    path[y] + (y, s) - path[ys] for the i-th non-tree edge (y, s) = ``free[i]``,
    path[y] being y's tree path as an edge vector, and x . z has entry
    z[moved[x, i]] on it. A cycle's entries on the non-tree edges are its
    coordinates in the basis ``cycles``.
    """
    n, r = gamma.order, len(gens)
    table = gamma.table.astype(np.intp)
    paths = np.zeros((n, n * r), dtype=np.int64)
    walk = _word_tree(table, gamma.identity, gens)
    tree = [(new, prev, prev * r + gens.index(s)) for new, prev, s in walk]
    for new, prev, e in tree:
        paths[new] = paths[prev]
        paths[new, e] += 1
    is_free = np.ones(n * r, dtype=bool)
    is_free[[e for _, _, e in tree]] = False
    free = np.flatnonzero(is_free)
    ys, js = np.divmod(free, r)
    cycles = paths[ys] - paths[table[ys, np.array(gens)[js]]]
    cycles[np.arange(len(free)), free] += 1
    inverses = np.array([gamma.inv(x) for x in range(n)])
    return tree, free, cycles, table[inverses[:, None], ys[None, :]] * r + js


def cayley_h2_central(gamma: FiniteGroup, pres: AbelianPresentation) -> H2Group:
    """H2 as Hom_gamma(Z1, A) modulo the image of A^X, on all fundamental cycles.

    A map f is its values F_i on the m fundamental cycles z_i, and it is a
    gamma-map when f(x.z_i) = x.f(z_i) for every x in X. Scaled by N over the
    moduli, one Smith form U E V = D over Z/N gives the gamma-maps as
    V S Z^mk + N Z^mk, S = diag(N / gcd(D_ii, N)); the image of A^X and the
    orders, in that basis, are the relations of a second Smith form. Generators
    pull back along the tree: c(g, h) is f summed over the edges of
    path[g] + g.path[h] - path[gh].
    """
    k, n = pres.rank, gamma.order
    if k == 0 or n == 1:
        return H2Group(gamma, pres, (), ())
    gens = gamma.short_generators()
    r, m = len(gens), n * (len(gens) - 1) + 1
    tree, free, cycles, moved = cayley_cycles(gamma, gens)
    table = gamma.table.astype(np.intp)
    mats = np.array(pres.matrices, dtype=np.int64).reshape(n, k, k)
    orders, exponent = np.tile(pres.factors, m), pres.factors[-1]
    eye_k, eye_m = np.eye(k, dtype=np.int64), np.eye(m, dtype=np.int64)
    blocks = [np.kron(cycles[:, moved[x]], eye_k) - np.kron(eye_m, mats[x]) for x in gens]
    scaled = np.concatenate(blocks) * np.tile(exponent // orders, r)[:, None]
    dec = smith_mod(scaled.tolist(), exponent)
    scale = [exponent // math.gcd(x, exponent) for x in dec.diagonal()]
    cycles = cycles.reshape(m, n, r)
    image = np.einsum("iyj,yut->jtiu", cycles, mats).reshape(-1, m * k).tolist()
    # and the orders: those below N are relations, and N Z^mk lies in the lattice
    image += [[int(f) * (i == j) for i in range(m * k)] for j, f in enumerate(orders)]
    columns = [_lattice_coords(dec.v_inv, scale, col) for col in image]
    if any(col is None for col in columns):
        raise CounterexampleFound("a relation escaped the gamma-maps")
    live = [i for i, s in enumerate(scale) if s < exponent]
    relations = [[col[i] for col in columns] for i in live]
    for row, i in zip(relations, live):
        row += [exponent // scale[i] if i == j else 0 for j in live]
    factors, lifts, coords = cokernel_invariant_factors(relations, len(live), exponent)
    v_live = [[row[i] * scale[i] for i in live] for row in dec.v]
    f = np.zeros((len(lifts), n * r, k), dtype=np.int64)  # f on every edge, zero on the tree
    f[:, free] = np.array(
        [[sum(a * b for a, b in zip(row, lift)) % exponent for row in v_live] for lift in lifts],
        dtype=np.int64,
    ).reshape(-1, m, k)
    c = np.zeros((len(lifts), n, n, k), dtype=np.int64)
    for new, prev, e in tree:  # path[ys] = path[y] + (y, s), so c(g, ys) = c(g, y) + f(gy, s)
        c[:, :, new] = (c[:, :, prev] + f[:, table[:, prev] * r + e % r]) % pres.factors
    g1 = _nonidentity(gamma)
    generators = tuple(tuple(cochain.ravel().tolist()) for cochain in c[:, g1][:, :, g1])
    v_inv = np.array(dec.v_inv, dtype=object).reshape(m * k, m * k)
    coords = np.array(coords, dtype=object).reshape(len(coords), len(live))
    return H2Group(
        gamma, pres, tuple(factors), generators, gens, cycles,
        v_inv, np.array(scale, dtype=object), coords,
    )
