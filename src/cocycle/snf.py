"""Smith normal forms over Z/N (N >= 2) and the cokernels they give.

:func:`smith_normal_form` takes nested lists and returns numpy arrays: int64
where the products of the elimination fit, Python ints (object) where not, and
no entry outgrows N. There is no form over Z; a caller that knows a torsion bound
passes a multiple of it as N. N splits into prime powers q joined by CRT; over Z/q
an entry of least valuation divides every other, so one elimination building only
V and V^-1 gives the form. Its self-check, P M V == L D and V V^-1 == I mod q with
L unit lower triangular, certifies U M V = D for U = L^-1 P, so ker M = V ker D.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import MatchFailure
from .fields import is_prime


def _rho(n: int) -> int:
    """A proper factor of an odd composite n, by Pollard's rho with Brent's cycle search."""
    for c in itertools.count(1):
        x = y = power = steps = g = 1
        while g == 1:
            if steps == power:  # Brent: restart the tortoise at each power of two
                x, power, steps = y, 2 * power, 0
            y, steps = (y * y + c) % n, steps + 1
            g = math.gcd(x - y, n)
        if g < n:
            return g


@functools.cache
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, p^e) with p^e exactly dividing n > 1, ascending in p; Miller-Rabin tells
    primes, and Pollard's rho splits an odd composite."""
    p = n if is_prime(n) else _prime_powers(2 if n % 2 == 0 else _rho(n))[0][0]  # a prime factor
    q = math.gcd(n, p ** n.bit_length())
    return tuple(sorted(((p, q), *(_prime_powers(n // q) if q < n else ()))))


def _dtype(q: int, rows: int, cols: int):
    """int64 while every sum of products of entries below q fits, else object."""
    return np.int64 if q * q * (max(rows, cols) + 1) < 1 << 62 else object


def _eliminate(m: list[list[int]], p: int, q: int):
    """(perm, a, v, v_inv) over Z/q, q a power of the prime p: rows perm of m are
    L D V^-1, with D a's diagonal, gcd(D_ii, q) nondecreasing, and L's multipliers below it."""
    rows, cols = len(m), len(m[0]) if m else 0
    a = np.array(m, dtype=_dtype(q, rows, cols)).reshape(rows, cols) % q
    perm, v, v_inv = np.arange(rows), np.eye(cols, dtype=a.dtype), np.eye(cols, dtype=a.dtype)
    for s in range(min(rows, cols)):
        width = 1 if (a[s:, s] % p).any() else cols - s  # a unit in column s: no search
        g = np.gcd(a[s:, s : s + width], q)
        if (pivot := int(g.min())) == q:  # pivot = p^k for the least valuation k
            break
        i, j = (s + x for x in np.unravel_index(np.argmin(g), g.shape))
        a[[s, i]], perm[[s, i]] = a[[i, s]], perm[[i, s]]
        a[:, [s, j]], v[:, [s, j]], v_inv[[s, j]] = a[:, [j, s]], v[:, [j, s]], v_inv[[j, s]]
        inv = pow(int(a[s, s]) // pivot, -1, q)  # of the pivot's unit part
        a[s + 1 :, s] = a[s + 1 :, s] // pivot * inv % q  # the multipliers
        below = s + 1 + np.flatnonzero(a[s + 1 :, s])  # the rows the update changes
        a[below, s + 1 :] = (a[below, s + 1 :] - np.outer(a[below, s], a[s, s + 1 :])) % q
        right = s + 1 + np.flatnonzero(a[s, s + 1 :])  # the columns clearing row s changes
        w, a[s, right] = a[s, right] // pivot * inv % q, 0
        v[:, right] = (v[:, right] - np.outer(v[:, s], w)) % q
        v_inv[s] = (v_inv[s] + w @ v_inv[right]) % q
    return perm, a, v, v_inv


def _certify(m, q: int, perm, a, v, v_inv) -> None:
    """Raise MatchFailure unless P m V == L D, gcd(D_ii, q) nondecreasing, and V V^-1 == I mod q."""
    d = np.concatenate([a.diagonal(), np.zeros(a.shape[1] - len(a.diagonal()), dtype=a.dtype)])
    lower = np.tril(a, -1) + np.eye(*a.shape, dtype=a.dtype)
    mv = np.array(m, dtype=a.dtype).reshape(a.shape)[perm] % q @ v % q
    if (mv != lower * d % q).any() or (np.diff(np.gcd(d, q)) < 0).any():
        raise MatchFailure("SNF self-check failed: P*M*V != L*D")
    if (v @ v_inv % q != np.eye(len(v), dtype=a.dtype)).any():
        raise MatchFailure("SNF self-check failed: V*V^-1 != I")


def smith_normal_form(m: list[list[int]], modulus: int) -> tuple[np.ndarray, ...]:
    """Smith form over Z/modulus: (diag, v, v_inv) with U M V = diag for some invertible U;
    diag's min(rows, cols) entries divide the modulus (0 for itself) and each the next."""
    if modulus < 2:
        raise ValueError(f"Smith forms are over Z/N with N >= 2, got N = {modulus}")
    n, rows, cols = int(modulus), len(m), len(m[0]) if m else 0
    dtype = _dtype(n, rows, cols)
    diag, v, v_inv = np.ones(min(rows, cols), dtype=dtype), 0, 0
    for p, q in _prime_powers(n):
        perm, a, vq, vq_inv = _eliminate(m, p, q)
        _certify(m, q, perm, a, vq, vq_inv)
        diag *= np.gcd(a.diagonal(), q).astype(dtype)
        crt = n // q * pow(n // q, -1, q)  # 1 mod q and 0 mod the other prime powers
        v, v_inv = v + vq.astype(dtype) * crt, v_inv + vq_inv.astype(dtype) * crt
    return diag % n, v % n, v_inv % n


def cokernel_invariant_factors(relations: list[list[int]], modulus: int) -> tuple[np.ndarray, ...]:
    """Invariant factors > 1 of Z^a / (col(relations) + modulus Z^a), lifts and coordinates.

    Here a is the number of rows of ``relations``; V^T, from the Smith form of their
    transpose, is their row transform. Returns arrays (factors, lifts, coords): row i of
    lifts is an ambient vector whose class generates the i-th cyclic factor, and an ambient
    vector y has class (coords[i] . y mod factors[i])_i, so lifts[i] maps to the i-th unit vector.
    """
    a = len(relations)
    diag, v, v_inv = smith_normal_form([*map(list, zip(*relations))] or [[0] * a], modulus)
    orders = np.gcd(np.concatenate([diag, np.zeros(a - len(diag), dtype=diag.dtype)]), modulus)
    kept = orders > 1
    return orders[kept], v_inv[kept], v[:, kept].T
