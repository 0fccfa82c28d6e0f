"""Exact integer matrix routines: Smith normal form and cokernels.

Everything runs over arbitrary-precision Python ints. Each decomposition
returns the transforms and is self-checked: U*M*V == D and both transforms
have exact integer inverses (tracked during reduction), which certifies
unimodularity without determinant computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MatchFailure

IntMatrix = list[list[int]]


def mat_copy(m: IntMatrix) -> IntMatrix:
    return [row[:] for row in m]


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    oi[j] += v * bt[j]
    return out


def is_identity(m: IntMatrix) -> bool:
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


@dataclass
class SmithDecomposition:
    """D = U * M * V with U, V unimodular; D diagonal with a divisibility chain."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> list[int]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = mat_copy(m)
    u, u_inv = mat_identity(rows), mat_identity(rows)
    v, v_inv = mat_identity(cols), mat_identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, t):
        # row_i += t * row_j
        for col in range(cols):
            d[i][col] += t * d[j][col]
        for col in range(rows):
            u[i][col] += t * u[j][col]
        for r in u_inv:
            r[j] -= t * r[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_col(i, j, t):
        # col_i += t * col_j
        for r in d:
            r[i] += t * r[j]
        for r in v:
            r[i] += t * r[j]
        for col in range(cols):
            v_inv[j][col] -= t * v_inv[i][col]

    def pivot_search(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    s = 0
    while s < min(rows, cols):
        pos = pivot_search(s)
        if pos is None:
            break
        if pos[0] != s:
            swap_rows(s, pos[0])
        if pos[1] != s:
            swap_cols(s, pos[1])
        while True:
            # clear column s
            dirty = False
            for i in range(s + 1, rows):
                if d[i][s]:
                    q = d[i][s] // d[s][s]
                    add_row(i, s, -q)
                    if d[i][s]:
                        swap_rows(s, i)
                        dirty = True
            for j in range(s + 1, cols):
                if d[s][j]:
                    q = d[s][j] // d[s][s]
                    add_col(j, s, -q)
                    if d[s][j]:
                        swap_cols(s, j)
                        dirty = True
            if not dirty and all(d[i][s] == 0 for i in range(s + 1, rows)) and all(
                d[s][j] == 0 for j in range(s + 1, cols)
            ):
                break
        if d[s][s] < 0:
            negate_row(s)
        # divisibility: pull in any entry the pivot does not divide
        pulled = False
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if d[i][j] % d[s][s] != 0:
                    add_row(s, i, 1)
                    pulled = True
                    break
            if pulled:
                break
        if pulled:
            continue
        s += 1
    result = SmithDecomposition(d, u, v, u_inv, v_inv)
    _self_check(m, result)
    return result


def _self_check(m: IntMatrix, r: SmithDecomposition) -> None:
    if mat_mul(mat_mul(r.u, m), r.v) != r.d:
        raise MatchFailure("SNF self-check failed: U*M*V != D")
    if not is_identity(mat_mul(r.u, r.u_inv)):
        raise MatchFailure("SNF self-check failed: U not unimodular")
    if not is_identity(mat_mul(r.v, r.v_inv)):
        raise MatchFailure("SNF self-check failed: V not unimodular")


def cokernel_invariant_factors(
    relations: IntMatrix, ambient_rank: int
) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Invariant factors > 1 of Z^ambient_rank / col(relations), lifts and coordinates.

    Returns (factors, generators, coords): generators[i] is an ambient
    vector whose class generates the i-th cyclic factor, and an ambient
    vector y has class (coords[i] . y mod factors[i])_i, so generators[i]
    maps to the i-th unit vector. Raises if the quotient is infinite
    (relations not of full row rank).
    """
    if ambient_rank == 0:
        return [], [], []
    if not relations or not relations[0]:
        raise ValueError("infinite quotient: no relations for positive rank")
    dec = smith_normal_form(relations)
    diag = dec.diagonal()
    if len(diag) < ambient_rank or any(x == 0 for x in diag[:ambient_rank]):
        raise ValueError("infinite quotient: relation matrix not of full row rank")
    kept = [i for i in range(ambient_rank) if diag[i] > 1]
    factors = [diag[i] for i in kept]
    gens = [[dec.u_inv[r][i] for r in range(ambient_rank)] for i in kept]
    return factors, gens, [dec.u[i][:] for i in kept]
