"""Reference H2 route: the stacked-kernel lattice solve the package used to run.

``h2_central`` finds the 2-cocycle lattice as the projection of the integer
kernel of ``[d2 | -diag(orders)]``, solves for im(d1) + orders in a spanning
set of that lattice, adds the kernel of the spanning matrix as relations and
reads the quotient off a Smith form. ``is_coboundary`` decides membership in
im(d1) + orders by one augmented integer solve. Both build d1 and d2 with
``normalized_d_sparse``, the pair-by-pair construction the package used.
``tests/test_h2.py`` compares the package's one-Smith-form route against
these results. ``h2_brute_force_order`` is the dense brute force the package
ran before it streamed the cochains in chunks: every raw 2-cochain in one
array, coboundaries counted as a set of tuples.
"""

from __future__ import annotations

import itertools

import numpy as np

from cocycle.errors import DEFAULT_MAX_SNF_ENTRIES, CounterexampleFound, SizeLimit
from cocycle.exactness import AbelianPresentation, H2Group
from cocycle.groups import FiniteGroup
from cocycle.snf import IntMatrix, cokernel_invariant_factors, smith_normal_form


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


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Columns spanning the integer kernel lattice of M."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    dec = smith_normal_form(m)
    rank = min(rows, cols)
    basis = []
    for j in range(cols):
        if j >= rank or dec.d[j][j] == 0:
            basis.append([dec.v[i][j] for i in range(cols)])
    return basis


def h2_central(
    gamma: FiniteGroup,
    pres: AbelianPresentation,
    max_entries: int = DEFAULT_MAX_SNF_ENTRIES,
) -> H2Group:
    """H2 through the kernel of the stacked matrix [d2 | -diag(orders)]."""
    k = pres.rank
    n1 = gamma.order - 1
    if k == 0 or n1 == 0:
        return H2Group(gamma, pres, (), ())
    d2_dim, d3_dim = n1 * n1 * k, n1 * n1 * n1 * k
    if d3_dim * (d2_dim + d3_dim) > max_entries:
        raise SizeLimit(
            f"H2 matrix of {d3_dim}x{d2_dim + d3_dim} entries exceeds bound {max_entries}"
        )
    d1, d2_rows, _, moduli2, moduli3, _ = normalized_d_sparse(gamma, pres)
    stacked = []
    for i, row in enumerate(d2_rows):
        dense = [0] * (d2_dim + d3_dim)
        for idx, coef in row:
            dense[idx] = coef
        dense[d2_dim + i] = -moduli3[i]
        stacked.append(dense)
    l_cols = [col[:d2_dim] for col in kernel_basis(stacked)]
    l_mat = [[col[i] for col in l_cols] for i in range(d2_dim)]
    solver = IntegerSolver(l_mat)
    m_cols = [[d1[i][j] for i in range(d2_dim)] for j in range(len(d1[0]) if d1 else 0)]
    m_cols += [
        [moduli2[i] if i == j else 0 for i in range(d2_dim)] for j in range(d2_dim)
    ]
    relation_cols = []
    for col in m_cols:
        y = solver.solve(col)
        if y is None:
            raise AssertionError("im(d1) escaped the 2-cocycle lattice (differential bug)")
        relation_cols.append(y)
    relation_cols += kernel_basis(l_mat)
    s = len(l_cols)
    relations = [[col[i] for col in relation_cols] for i in range(s)]
    factors, lifts = cokernel_invariant_factors(relations, s)[:2]
    generators = []
    for lift in lifts:
        vec = [
            sum(l_mat[i][j] * lift[j] for j in range(s)) % moduli2[i]
            for i in range(d2_dim)
        ]
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
