"""Reference field arithmetic: the pure-Python polynomial product the package
ran before its towers worked on digit arrays only.

An element is an int whose base-p digits are polynomial coefficients, the
constant term first, as in ``cocycle.fields``. Everything here is scalar
Python on digit lists: the modulus is the least monic irreducible, found by
trial division; a product is the schoolbook polynomial product reduced by
long division. ``tests/test_field_oracle.py`` checks a tower's modulus, its
Frobenius matrix, every entry of its five tables and sampled array
operations against it. It imports nothing from ``cocycle.fields``, so the
package's digit-array arithmetic is checked by a second one.
"""

from __future__ import annotations

import itertools

import numpy as np


def decode(value: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        digits.append(value % p)
        value //= p
    return digits


def encode(digits, p: int) -> int:
    value = 0
    for d in reversed(list(digits)):
        value = value * p + d
    return value


def poly_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_rem(num, monic, p: int) -> list[int]:
    """num mod a monic polynomial, as len(monic) - 1 digits."""
    num, deg = list(num), len(monic) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        coef = num[i]
        if coef:
            for j in range(deg + 1):
                num[i - deg + j] = (num[i - deg + j] - coef * monic[j]) % p
    return (num + [0] * deg)[:deg]


def least_irreducible(p: int, degree: int) -> list[int]:
    """The monic irreducible of the degree whose low digits encode least."""
    for enc in range(p**degree):
        poly = decode(enc, p, degree) + [1]
        if not any(
            not any(poly_rem(poly, list(low) + [1], p))
            for d in range(1, degree // 2 + 1)
            for low in itertools.product(range(p), repeat=d)
        ):
            return poly
    raise AssertionError(f"no irreducible of degree {degree} over F_{p}")


class RefField:
    """F_{p^(d n)} over F_{p^d}, element by element."""

    def __init__(self, p: int, d: int, n: int):
        self.p, self.n, self.q = p, n, p**d
        self.degree, self.size = d * n, p ** (d * n)
        self.modulus = least_irreducible(p, self.degree)

    def digits(self, a: int) -> list[int]:
        return decode(a, self.p, self.degree)

    def add(self, a: int, b: int) -> int:
        return encode([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))], self.p)

    def neg(self, a: int) -> int:
        return encode([-x % self.p for x in self.digits(a)], self.p)

    def mul(self, a: int, b: int) -> int:
        prod = poly_mul(self.digits(a), self.digits(b), self.p)
        return encode(poly_rem(prod, self.modulus, self.p), self.p)

    def pow(self, a: int, e: int) -> int:
        result, cur = 1, a
        while e:
            if e & 1:
                result = self.mul(result, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        return self.pow(a, self.size - 2)

    def frob(self, a: int, j: int = 1) -> int:
        return self.pow(a, self.q ** (j % self.n))

    def frobenius_matrix(self) -> np.ndarray:
        """Column i: the digits of (x^i)^q."""
        cols = [self.digits(self.frob(self.p**i)) for i in range(self.degree)]
        return np.array(cols, dtype=np.int64).T

    def tables(self) -> dict[str, np.ndarray]:
        """The five tables. Products come from discrete logarithms to the least
        primitive element, whose powers are reference products: |K| of them
        instead of |K|^2."""
        size, p = self.size, self.p
        digits = np.array([self.digits(a) for a in range(size)], dtype=np.int64)
        add, neg = np.zeros((size, size), dtype=np.int64), np.zeros(size, dtype=np.int64)
        for i, col in enumerate(digits.T):
            add += (col[:, None] + col) % p * p**i
            neg += -col % p * p**i
        order = size - 1
        primes = [r for r in range(2, order + 1) if order % r == 0 and all(r % s for s in range(2, r))]
        g = next(g for g in range(1, size) if all(self.pow(g, order // r) != 1 for r in primes))
        exp = [1]
        for _ in range(order - 1):
            exp.append(self.mul(exp[-1], g))
        exp = np.array(exp, dtype=np.int64)
        log = np.zeros(size, dtype=np.int64)
        log[exp] = np.arange(order)
        nonzero = np.arange(size) != 0
        mul = exp[(log[:, None] + log[None, :]) % order] * (nonzero[:, None] & nonzero[None, :])
        inv = exp[-log % order] * nonzero
        frob = exp[log * self.q % order] * nonzero
        return {"add": add, "neg": neg, "mul": mul, "inv": inv, "frob": frob}
