"""Finite field towers F_{p^{dn}} / F_{p^d} with an explicit Frobenius.

Elements are integers in [0, p^(d*n)) encoding polynomial coefficient
vectors base p (digit i is the coefficient of x^i) modulo a canonical
irreducible: the one with the smallest integer encoding, i.e. the
lexicographically least coefficient vector read from the constant term up.
Small fields get dense lookup tables; larger towers fall back to on-demand
polynomial arithmetic. The tower alone knows which: its array operations
(``vadd``, ``vmul``, ...) are table gathers or element-by-element calls of
the scalar ones. The base field of the tower is the fixed field of
x -> x^(p^d), verified at construction through the Frobenius matrix.

Matrices over the tower are entry-major arrays everywhere: a batch of
r x c matrices is one (r, c, *batch) int array, multiplied by ``batch_mul``
and mapped entrywise by ``vfrob``. Tuples (``Matrix``) appear only at the
API boundary, through ``as_matrix``. The one elimination routine, ``rref``,
behind rank, kernel, solve, determinant and inverse, reduces one matrix of
Python ints at a time. GL_m/SL_m have one enumeration, ``general_linear``: a
stream, in lexicographic order, of chunks of ``ENGINE_CHUNK >> 4`` entries,
each an (m, m, N) array with its Leibniz determinants and ranks, inverted in
bulk by ``batch_inv``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
import numpy as np

from .errors import (
    DEFAULT_MAX_FIELD,
    DEFAULT_MAX_MATRICES,
    FIELD_TABLE_LIMIT,
    CounterexampleFound,
    DimensionFailure,
    NoIrreducible,
    NotPrime,
    SizeLimit,
    check_buffer,
)
from .groups import ENGINE_CHUNK

Matrix = tuple[tuple[int, ...], ...]
Chunks = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (mats, det, keys) per chunk


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


# -- polynomial helpers over F_p (digit-tuple representation) ----------------


def _decode(value: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        digits.append(value % p)
        value //= p
    return digits


def _encode(digits, p: int) -> int:
    value = 0
    for d in reversed(list(digits)):
        value = value * p + d
    return value


def _poly_deg(digits) -> int:
    for i in range(len(digits) - 1, -1, -1):
        if digits[i]:
            return i
    return -1


def _poly_divmod(num, den, p):
    num = list(num)
    dd = _poly_deg(den)
    lead_inv = pow(den[dd], p - 2, p)
    for i in range(_poly_deg(num), dd - 1, -1):
        if num[i] == 0:
            continue
        coef = num[i] * lead_inv % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - coef * den[j]) % p
    return num


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _is_irreducible(poly, p) -> bool:
    deg = _poly_deg(poly)
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            trial = list(coeffs) + [1]  # monic of degree d
            rem = _poly_divmod(poly, trial, p)
            if _poly_deg(rem) < 0:
                return False
    return True


def least_irreducible(p: int, degree: int) -> list[int]:
    """Monic irreducible of the given degree with the least integer encoding."""
    for enc in range(p**degree):
        poly = _decode(enc, p, degree) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise NoIrreducible(f"no irreducible of degree {degree} over F_{p}")


class FqTower:
    """K = F_{p^{dn}} over k = F_{p^d}, with Frobenius x -> x^(p^d)."""

    def __init__(self, p: int, d: int, n: int, max_field: int = DEFAULT_MAX_FIELD):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if d < 1 or n < 1:
            raise ValueError("degrees must be positive")
        size = p ** (d * n)
        if size > max_field:
            raise SizeLimit(f"field size {size} exceeds bound {max_field}")
        self.p, self.d, self.n = p, d, n
        self.q = p**d
        self.size = size
        self.degree = d * n
        self.modulus = least_irreducible(p, self.degree)
        self._reductions = self._power_reductions()
        self.frobenius_matrix = self._frobenius_matrix()
        self._tables_built = False
        self._validate_frobenius()
        self._k_elements: tuple[int, ...] | None = None
        self._k_basis: tuple[int, ...] | None = None
        self._k_coords: dict[int, tuple[int, ...]] | None = None
        if size <= FIELD_TABLE_LIMIT:
            self._build_tables()

    # -- raw polynomial arithmetic -------------------------------------

    def _power_reductions(self) -> list[list[int]]:
        """x^(degree + j) reduced mod the modulus, for j = 0..degree-2."""
        p, deg = self.p, self.degree
        reductions = []
        current = [(-c) % p for c in self.modulus[:deg]]  # x^deg
        reductions.append(current[:])
        for _ in range(deg - 2):
            shifted = [0] + current[:-1]
            top = current[-1]
            if top:
                for i in range(deg):
                    shifted[i] = (shifted[i] + top * reductions[0][i]) % p
            current = shifted
            reductions.append(current[:])
        return reductions

    def _mul_digits(self, a: list[int], b: list[int]) -> list[int]:
        p, deg = self.p, self.degree
        prod = _poly_mul(a, b, p)
        out = prod[:deg] + [0] * max(0, deg - len(prod))
        for j in range(deg, len(prod)):
            c = prod[j]
            if c:
                red = self._reductions[j - deg]
                for i in range(deg):
                    out[i] = (out[i] + c * red[i]) % p
        return out[:deg]

    def _frobenius_matrix(self) -> np.ndarray:
        deg = self.degree
        mat = np.zeros((deg, deg), dtype=np.int64)
        for i in range(deg):
            mat[:, i] = self._pow_digits(self._monomial(i), self.q)
        return mat

    def _monomial(self, i: int) -> list[int]:
        digits = [0] * self.degree
        digits[i] = 1
        return digits

    def _pow_digits(self, base: list[int], e: int) -> list[int]:
        result = [1] + [0] * (self.degree - 1)
        cur = base[:]
        while e:
            if e & 1:
                result = self._mul_digits(result, cur)
            cur = self._mul_digits(cur, cur)
            e >>= 1
        return result

    def _validate_frobenius(self) -> None:
        deg, p = self.degree, self.p
        eye = np.eye(deg, dtype=np.int64)
        power = eye.copy()
        for _ in range(self.n):
            power = (self.frobenius_matrix @ power) % p
        if not np.array_equal(power % p, eye):
            raise CounterexampleFound("frobenius does not have order dividing n")
        for ell in {f for f in range(2, self.n + 1) if self.n % f == 0 and is_prime(f)}:
            power = eye.copy()
            for _ in range(self.n // ell):
                power = (self.frobenius_matrix @ power) % p
            if np.array_equal(power % p, eye):
                raise CounterexampleFound("frobenius has order smaller than n")
        # F_p entries are the tower's constants, so the tower's own
        # elimination computes the rank over F_p
        nullity = deg - mat_rank(self, ((self.frobenius_matrix - eye) % p).tolist())
        if p**nullity != self.q:
            raise DimensionFailure("fixed field of frobenius is not the base field")

    # -- dense tables ----------------------------------------------------

    def _build_tables(self) -> None:
        size, p, deg = self.size, self.p, self.degree
        check_buffer(size * size, 8, "field multiplication table")
        digits = np.array([_decode(v, p, deg) for v in range(size)], dtype=np.int64)
        powers = p ** np.arange(deg, dtype=np.int64)
        self.add_table = (
            ((digits[:, None, :] + digits[None, :, :]) % p) @ powers
        ).astype(np.int64)
        self.neg_table = (((-digits) % p) @ powers).astype(np.int64)
        # shift[i] maps digit vectors b to digits of x^i * b mod modulus
        shift = np.empty((deg, deg, deg), dtype=np.int64)
        for i in range(deg):
            for j in range(deg):
                shift[i, :, j] = self._mul_digits(self._monomial(i), self._monomial(j))
        mul = np.empty((size, size), dtype=np.int64)
        for a in range(size):
            op = np.tensordot(digits[a], shift, axes=(0, 0)) % p  # deg x deg
            mul[a] = (((digits @ op.T) % p) @ powers)
        self.mul_table = mul
        frob = ((digits @ self.frobenius_matrix.T) % p) @ powers
        self.frob_table = frob.astype(np.int64)
        # the unique b with a * b = 1; row 0 has no 1, so inv_table[0] = 0
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.int64)
        self._tables_built = True

    # -- element operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._tables_built:
            return int(self.add_table[a, b])
        da, db = _decode(a, self.p, self.degree), _decode(b, self.p, self.degree)
        return _encode([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        if self._tables_built:
            return int(self.neg_table[a])
        return _encode([(-x) % self.p for x in _decode(a, self.p, self.degree)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._tables_built:
            return int(self.mul_table[a, b])
        da, db = _decode(a, self.p, self.degree), _decode(b, self.p, self.degree)
        return _encode(self._mul_digits(da, db), self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._tables_built:
            return int(self.inv_table[a])
        return self.pow(a, self.size - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        e %= self.size - 1
        result = 1
        cur = a
        while e:
            if e & 1:
                result = self.mul(result, cur)
            cur = self.mul(cur, cur)
            e >>= 1
        return result

    def frob(self, a: int, j: int = 1) -> int:
        j %= self.n
        if self._tables_built:
            for _ in range(j):
                a = int(self.frob_table[a])
            return a
        for _ in range(j):
            a = self.pow(a, self.q)
        return a

    # -- array operations: table gathers, or the scalar op per element ---

    def _elementwise(self, op, *arrays) -> np.ndarray:
        return np.asarray(np.frompyfunc(op, len(arrays), 1)(*arrays), dtype=np.int64)

    def vadd(self, a, b) -> np.ndarray:
        """Array counterpart of add, broadcasting like numpy."""
        if self._tables_built:
            return self.add_table[a, b]
        return self._elementwise(self.add, a, b)

    def vneg(self, a) -> np.ndarray:
        if self._tables_built:
            return self.neg_table[a]
        return self._elementwise(self.neg, a)

    def vmul(self, a, b) -> np.ndarray:
        if self._tables_built:
            return self.mul_table[a, b]
        return self._elementwise(self.mul, a, b)

    def vinv(self, a) -> np.ndarray:
        """Array counterpart of inv; every entry must be nonzero."""
        if self._tables_built:
            return self.inv_table[a]
        return self._elementwise(self.inv, a)

    def vfrob(self, a, j: int = 1) -> np.ndarray:
        if self._tables_built:
            a = np.asarray(a)
            for _ in range(j % self.n):
                a = self.frob_table[a]
            return a
        return self._elementwise(lambda x: self.frob(x, j), a)

    def norm_to_base(self, a: int) -> int:
        out = 1
        for j in range(self.n):
            out = self.mul(out, self.frob(a, j))
        return out

    def in_base(self, a: int) -> bool:
        return self.frob(a) == a

    # -- base-field coordinates -------------------------------------------

    @property
    def k_elements(self) -> tuple[int, ...]:
        """The base field k as the fixed points of Frobenius, found on first use."""
        if self._k_elements is None:
            every = np.arange(self.size, dtype=np.int64)
            fixed = tuple(int(a) for a in every[self.vfrob(every) == every])
            if len(fixed) != self.q:
                raise DimensionFailure("fixed points of the frobenius are not the base field")
            self._k_elements = fixed
        return self._k_elements

    def _ensure_coords(self) -> None:
        if not self._tables_built:
            raise SizeLimit("tower too large for dense base-field coordinates")
        if self._k_basis is not None:
            return
        basis: list[int] = []
        span = {0}
        for e in range(self.size):
            if len(basis) == self.n:
                break
            if e in span:
                continue
            basis.append(e)
            span = {self.add(s, self.mul(c, e)) for s in span for c in self.k_elements}
        if len(basis) != self.n:
            raise DimensionFailure(f"base-field basis has {len(basis)} elements, expected {self.n}")
        coords: dict[int, tuple[int, ...]] = {}
        for combo in itertools.product(self.k_elements, repeat=self.n):
            val = 0
            for c, b in zip(combo, basis):
                val = self.add(val, self.mul(c, b))
            coords[val] = combo
        if len(coords) != self.size:
            raise DimensionFailure("base-field coordinates do not cover the field")
        self._k_basis = tuple(basis)
        self._k_coords = coords

    @property
    def k_basis(self) -> tuple[int, ...]:
        self._ensure_coords()
        return self._k_basis

    def k_coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a K-element over the base field, in k_basis."""
        self._ensure_coords()
        return self._k_coords[a]

    def from_k_coords(self, coords) -> int:
        self._ensure_coords()
        val = 0
        for c, b in zip(coords, self._k_basis):
            val = self.add(val, self.mul(c, b))
        return val

    def __repr__(self) -> str:
        return f"FqTower(F_{self.p}^{self.degree} over F_{self.q})"


_TOWER_CACHE: dict[tuple[int, int, int], FqTower] = {}


def make_tower(p: int, d: int, n: int, max_field: int = DEFAULT_MAX_FIELD) -> FqTower:
    """Validated tower; see FqTower for the canonical modulus choice.

    Towers are immutable, so identical parameters share one instance.
    """
    key = (p, d, n)
    cached = _TOWER_CACHE.get(key)
    if cached is not None:
        if cached.size > max_field:
            raise SizeLimit(f"field size {cached.size} exceeds bound {max_field}")
        return cached
    tower = FqTower(p, d, n, max_field)
    _TOWER_CACHE[key] = tower
    return tower


# -- matrices over a tower ----------------------------------------------------


def rref(tower: FqTower, rows) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form over the tower by Gauss-Jordan elimination.

    Returns the reduced rows, the pivot columns and the determinant factor:
    the product of the pivots met, negated once per row swap. A square
    matrix has determinant equal to the factor when every column has a
    pivot, and 0 otherwise.
    """
    mat = [[int(x) for x in row] for row in rows]
    n_rows, n_cols = len(mat), (len(mat[0]) if mat else 0)
    pivots: list[int] = []
    factor = 1
    for c in range(n_cols):
        top = len(pivots)
        pivot = next((r for r in range(top, n_rows) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            mat[top], mat[pivot] = mat[pivot], mat[top]
            factor = tower.neg(factor)
        factor = tower.mul(factor, mat[top][c])
        pinv = tower.inv(mat[top][c])
        mat[top] = [tower.mul(x, pinv) for x in mat[top]]
        for r in range(n_rows):
            if r != top and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(mat[r], mat[top])]
        pivots.append(c)
    return mat, pivots, factor


def mat_rank(tower: FqTower, rows) -> int:
    return len(rref(tower, rows)[1])


def mat_kernel(tower: FqTower, rows) -> list[list[int]]:
    """Kernel basis: one vector per free column, with 1 in that column."""
    reduced, pivots, _ = rref(tower, rows)
    n_cols = len(rows[0]) if len(rows) else 0
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        vec = [0] * n_cols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = tower.neg(reduced[r][free])
        basis.append(vec)
    return basis


def mat_solve(tower: FqTower, rows, rhs) -> tuple[int, ...] | None:
    """A solution x of rows . x = rhs (free coordinates 0), or None."""
    n_cols = len(rows[0])
    reduced, pivots, _ = rref(tower, [list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == n_cols:
        return None
    out = [0] * n_cols
    for r, c in enumerate(pivots):
        out[c] = reduced[r][n_cols]
    return tuple(out)


def mat_det(tower: FqTower, a: Matrix) -> int:
    _, pivots, factor = rref(tower, a)
    return factor if len(pivots) == len(a) else 0


def mat_inv(tower: FqTower, a: Matrix) -> Matrix | None:
    m = len(a)
    augmented = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    reduced, pivots, _ = rref(tower, augmented)
    if pivots[:m] != list(range(m)):
        return None
    return tuple(tuple(row[m:]) for row in reduced)


# -- batched matrices: entry-major (rows, cols, *batch) int arrays ---------------


def as_matrix(a: np.ndarray) -> Matrix:
    """One (rows, cols) slice of a batch as a tuple matrix."""
    return tuple(tuple(int(x) for x in row) for row in a)


def matrices_over(values: np.ndarray, m: int, keys: np.ndarray) -> np.ndarray:
    """The m x m matrices over values whose row-major base-len(values) digits
    are keys: lexicographic ranks, and over values = range(|K|) batch_keys."""
    digits = np.unravel_index(np.asarray(keys, dtype=np.int64), (len(values),) * (m * m))
    return np.asarray(values, dtype=np.int64)[np.stack(digits)].reshape(m, m, len(keys))


def batch_key(tower: FqTower, a: np.ndarray) -> np.ndarray:
    """Base-|K| encoding of each matrix, row-major: its lexicographic rank."""
    key = np.zeros(a.shape[2:], dtype=np.int64)
    for row in a:
        for x in row:
            key = key * tower.size + x
    return key


def batch_mul(tower: FqTower, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products a . b, broadcasting the batch axes."""
    batch = np.broadcast_shapes(a.shape[2:], b.shape[2:])
    out = np.empty((a.shape[0], b.shape[1], *batch), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = tower.vmul(a[i, 0], b[0, j])
            for t in range(1, b.shape[0]):
                acc = tower.vadd(acc, tower.vmul(a[i, t], b[t, j]))
            out[i, j] = acc
    return out


def batch_det(tower: FqTower, a) -> np.ndarray:
    """Leibniz determinants of a batch, or of a nested list of entry arrays.

    m! terms of m - 1 products each.
    """
    m = len(a)
    det = None
    for perm in itertools.permutations(range(m)):
        term = a[0][perm[0]]
        for i in range(1, m):
            term = tower.vmul(term, a[i][perm[i]])
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        if inversions % 2:
            term = tower.vneg(term)
        det = term if det is None else tower.vadd(det, term)
    return np.asarray(det, dtype=np.int64)


def batch_inv(tower: FqTower, a: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses as adjugate / det, for matrices with nonzero determinant det."""
    m = a.shape[0]
    det_inv = tower.vinv(det)
    out = np.empty_like(a)
    if m == 1:
        out[0, 0] = det_inv
        return out
    for i in range(m):
        for j in range(m):
            minor = [[a[r, c] for c in range(m) if c != j] for r in range(m) if r != i]
            cofactor = batch_det(tower, minor)
            if (i + j) % 2:
                cofactor = tower.vneg(cofactor)
            out[j, i] = tower.vmul(cofactor, det_inv)
    return out


def invertible_matrices(tower: FqTower, values: np.ndarray, m: int, special: bool) -> Chunks:
    """(mats, det, ranks) chunks of the invertible (det 1 if special) matrices_over values."""
    total = len(values) ** (m * m)
    step = max(1, (ENGINE_CHUNK >> 4) // (m * m))
    for start in range(0, total, step):
        keys = np.arange(start, min(start + step, total), dtype=np.int64)
        mats = matrices_over(values, m, keys)
        det = batch_det(tower, mats)
        keep = det == 1 if special else det != 0
        yield mats[:, :, keep], det[keep], keys[keep]


def check_matrix_count(tower: FqTower, m: int) -> None:
    """Refuse a GL_m scan over a tower whose |K|^(m^2) matrices exceed the bound."""
    total = tower.size ** (m * m)
    if total > DEFAULT_MAX_MATRICES:
        raise SizeLimit(f"{total} matrices exceed bound {DEFAULT_MAX_MATRICES}")


def general_linear(tower: FqTower, m: int, special: bool = False) -> Chunks:
    """GL_m(K), or SL_m(K) when special, as lexicographic (mats, det, batch_key) chunks.

    The bound applies to the |K|^(m^2) matrices scanned, at the call, before allocation.
    """
    if m < 1:
        raise ValueError(f"matrix size must be at least 1, got {m}")
    check_matrix_count(tower, m)
    return invertible_matrices(tower, np.arange(tower.size), m, special)


def _as_list(chunks) -> list[Matrix]:
    return [as_matrix(mats[:, :, i]) for mats, _, _ in chunks for i in range(mats.shape[2])]


def enumerate_gl(tower: FqTower, m: int) -> list[Matrix]:
    return _as_list(general_linear(tower, m))


def enumerate_sl(tower: FqTower, m: int) -> list[Matrix]:
    return _as_list(general_linear(tower, m, True))
