"""Reference Smith forms: the elimination the package ran before it worked over Z/N only.

:func:`smith_mod` runs over Z/N, and with N = 0 over Z
(:func:`smith_normal_form`), on arbitrary-precision ints; every result is a
list of lists. ``tests/test_exactness.py`` compares ``cocycle.snf`` against
it on random matrices, and ``tests/h2_oracle.py`` and
``tests/engine_oracle.py`` take their Smith forms from it, so the oracles
share no elimination with the code they check. Each decomposition is
self-checked: U*M*V == D and both transforms have inverses (tracked during
reduction), which certifies unimodularity without determinant computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cocycle.errors import MatchFailure

IntMatrix = list[list[int]]


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


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, |g| = gcd(a, b), for a != 0; (a, 1, 0) when a divides b."""
    if b % a == 0:
        return a, 1, 0
    x0, y0, x1, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    return r0, x0, y0


def smith_mod(m: IntMatrix, modulus: int) -> SmithDecomposition:
    """Smith form over Z/modulus (over Z when the modulus is 0): U M V = D.

    The gcds of D's diagonal with the modulus form a divisibility chain; U
    and V are invertible, with inverses ``u_inv`` and ``v_inv``. Every step
    is a 2 x 2 Bezout operation of determinant one. Reduced mod the modulus,
    no entry outgrows it; over Z the same eliminations can grow entries to
    tens of thousands of digits on matrices of a few dozen rows.
    """
    n, rows, cols = modulus, len(m), len(m[0]) if m else 0
    dtype = np.int64 if 0 < n and n * n * (max(rows, cols) + 1) < 1 << 62 else object
    red = (lambda a: a % n) if n else (lambda a: a)
    m0 = np.array([[red(x) for x in row] for row in m], dtype=dtype).reshape(rows, cols)
    d = m0.copy()
    u, u_inv, v, v_inv = (np.eye(k, dtype=dtype) for k in (rows, rows, cols, cols))

    def combine(a, i, j, x, y, p, q):  # (a_i, a_j) <- (x a_i + y a_j, p a_i + q a_j)
        a[i], a[j] = red(x * a[i] + y * a[j]), red(p * a[i] + q * a[j])

    def row_op(i, j, x, y, p, q):
        combine(d, i, j, x, y, p, q)
        combine(u, i, j, x, y, p, q)
        combine(u_inv.T, i, j, q, -p, -y, x)

    def col_op(i, j, x, y, p, q):
        combine(d.T, i, j, x, y, p, q)
        combine(v.T, i, j, x, y, p, q)
        combine(v_inv, i, j, q, -p, -y, x)

    for s in range(min(rows, cols)):
        nonzero = np.argwhere(d[s:, s:] != 0)
        if not len(nonzero):
            break
        # the pivot generates the largest ideal: least gcd with n, least |entry| over Z
        i, j = nonzero[np.argmin(np.gcd(d[s:, s:][tuple(nonzero.T)], n))] + s
        if i != s:
            row_op(s, i, 0, 1, -1, 0)  # swap up to sign
        if j != s:
            col_op(s, j, 0, 1, -1, 0)
        while True:  # each pass that fills the pivot's row or column lowers |pivot|
            for i in np.flatnonzero(d[s + 1 :, s]) + s + 1:
                g, x, y = _bezout(int(d[s, s]), int(d[i, s]))
                row_op(s, i, x, y, -int(d[i, s]) // g, int(d[s, s]) // g)
            for j in np.flatnonzero(d[s, s + 1 :]) + s + 1:
                g, x, y = _bezout(int(d[s, s]), int(d[s, j]))
                col_op(s, j, x, y, -int(d[s, j]) // g, int(d[s, s]) // g)
            if d[s + 1 :, s].any():
                continue
            bad = np.argwhere(d[s + 1 :, s + 1 :] % math.gcd(int(d[s, s]), n) != 0)
            if not len(bad):
                break
            row_op(s, bad[0][0] + s + 1, 1, 1, 0, 1)  # pull in an entry the pivot does not divide
        if d[s, s] < 0:
            d[s], u[s], u_inv[:, s] = -d[s], -u[s], -u_inv[:, s]
    if (red(red(u @ m0) @ v) != d).any():
        raise MatchFailure("SNF self-check failed: U*M*V != D")
    if (red(u @ u_inv) != np.eye(rows)).any() or (red(v @ v_inv) != np.eye(cols)).any():
        raise MatchFailure("SNF self-check failed: a transform is not invertible")
    return SmithDecomposition(*(a.tolist() for a in (d, u, v, u_inv, v_inv)))


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations."""
    return smith_mod(m, 0)


def cokernel_invariant_factors(
    relations: IntMatrix, ambient_rank: int, modulus: int = 0
) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Invariant factors > 1 of Z^a / (col(relations) + modulus Z^a), lifts and coordinates.

    Here a = ambient_rank, the number of rows of ``relations``. Returns
    (factors, generators, coords): generators[i] is an ambient vector whose
    class generates the i-th cyclic factor, and an ambient vector y has class
    (coords[i] . y mod factors[i])_i, so generators[i] maps to the i-th unit
    vector. Raises if the quotient is infinite.
    """
    if ambient_rank == 0:
        return [], [], []
    dec = smith_mod(relations, modulus)
    orders = [math.gcd(x, modulus) for x in (dec.diagonal() + [0] * ambient_rank)[:ambient_rank]]
    if 0 in orders:
        raise ValueError("infinite quotient: relation matrix not of full row rank")
    kept = [i for i, f in enumerate(orders) if f > 1]
    lifts = [[row[i] for row in dec.u_inv] for i in kept]
    return [orders[i] for i in kept], lifts, [dec.u[i] for i in kept]
