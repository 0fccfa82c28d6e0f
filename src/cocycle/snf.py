"""Smith normal forms over Z/N (N >= 2) and the cokernels they give.

:func:`smith_normal_form` takes nested lists and returns numpy arrays: int64
where the products of the elimination fit, Python ints (object) where not, and
no entry outgrows N. There is no form over Z; a caller that knows a torsion bound
passes a multiple of it as N. Each decomposition is self-checked: U*M*V == D and
both transforms have inverses mod N (tracked during reduction), which certifies
invertibility without determinant computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MatchFailure


@dataclass
class SmithDecomposition:
    """D = U * M * V mod N with U, V invertible; gcd(D_ii, N) form a divisibility chain."""

    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    u_inv: np.ndarray
    v_inv: np.ndarray


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, |g| = gcd(a, b), for a != 0; (a, 1, 0) when a divides b."""
    if b % a == 0:
        return a, 1, 0
    x0, y0, x1, y1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        q = r0 // r1
        r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
    return r0, x0, y0


def smith_normal_form(m: list[list[int]], modulus: int) -> SmithDecomposition:
    """Smith form over Z/modulus: U M V = D.

    The gcds of D's diagonal with the modulus form a divisibility chain; U
    and V are invertible, with inverses ``u_inv`` and ``v_inv``. Every step
    is a 2 x 2 Bezout operation of determinant one, reduced mod the modulus.
    """
    if modulus < 2:
        raise ValueError(f"Smith forms are over Z/N with N >= 2, got N = {modulus}")
    n, rows, cols = modulus, len(m), len(m[0]) if m else 0
    dtype = np.int64 if n * n * (max(rows, cols) + 1) < 1 << 62 else object
    m0 = np.array([[x % n for x in row] for row in m], dtype=dtype).reshape(rows, cols)
    d = m0.copy()
    u, u_inv, v, v_inv = (np.eye(k, dtype=dtype) for k in (rows, rows, cols, cols))

    def combine(a, i, j, x, y, p, q):  # (a_i, a_j) <- (x a_i + y a_j, p a_i + q a_j)
        a[i], a[j] = (x * a[i] + y * a[j]) % n, (p * a[i] + q * a[j]) % n

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
        # the pivot generates the largest ideal: least gcd with n
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
    if ((u @ m0 % n) @ v % n != d).any():
        raise MatchFailure("SNF self-check failed: U*M*V != D")
    if (u @ u_inv % n != np.eye(rows)).any() or (v @ v_inv % n != np.eye(cols)).any():
        raise MatchFailure("SNF self-check failed: a transform is not invertible")
    return SmithDecomposition(d, u, v, u_inv, v_inv)


def cokernel_invariant_factors(
    relations: list[list[int]], modulus: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invariant factors > 1 of Z^a / (col(relations) + modulus Z^a), lifts and coordinates.

    Here a is the number of rows of ``relations``. Returns arrays
    (factors, lifts, coords): row i of lifts is an ambient vector whose class
    generates the i-th cyclic factor, and an ambient vector y has class
    (coords[i] . y mod factors[i])_i, so lifts[i] maps to the i-th unit vector.
    """
    dec = smith_normal_form(relations, modulus)
    orders = np.gcd(np.gcd.reduce(dec.d, axis=1), modulus)  # row i of D holds D_ii, or nothing
    kept = orders > 1
    return orders[kept], dec.u_inv[:, kept].T, dec.u[kept]
