"""Finite field towers F_{p^{dn}} / F_{p^d} with an explicit Frobenius.

Elements are integers in [0, p^(d*n)) encoding polynomial coefficient
vectors base p (digit i is the coefficient of x^i) modulo a canonical
irreducible: the one with the smallest integer encoding, i.e. the
lexicographically least coefficient vector read from the constant term up.
The tower has one arithmetic, on arrays of those base-p digit vectors: a
product is a broadcasting polynomial product folded back through the rows
x^(deg + j) mod the modulus, and Frobenius is the digit vector times the
Frobenius matrix. Its array operations (``vadd``, ``vmul``, ``vpow``, ...)
run that arithmetic on whole arrays, or, in fields small enough for dense
lookup tables built by it, gather from the tables; the scalar operations
are the array ones on one element. The base field of the tower is the fixed
field of x -> x^(p^d), verified at construction through the Frobenius matrix.

Matrices over the tower are entry-major arrays everywhere: a batch of
r x c matrices is one (r, c, *batch) int array, multiplied by ``batch_mul``
and mapped entrywise by ``vfrob``. Tuples (``Matrix``) appear only at the
API boundary, through ``as_matrix``. The one elimination routine, ``rref``,
behind rank, kernel, solve, determinant and inverse, reduces a 2-D array
with a few whole-array operations per pivot. GL_m/SL_m have one enumeration,
``general_linear``: a stream, in lexicographic order, of the chunks of
``groups.product_chunks`` at 16 m^2 entries a row, each an (m, m, N) array with
its Leibniz determinants and ranks, inverted in bulk by ``batch_inv`` (adjugates).
"""

from __future__ import annotations

import functools
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
from .groups import product_chunks

Matrix = tuple[tuple[int, ...], ...]
Chunks = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]  # (mats, det, keys) per chunk


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes as bases: exact for every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in bases:  # a witnesses n composite unless a^d = 1 or some a^(d 2^i) = -1
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in [pow(x, 1 << i, n) for i in range(s)]:
            return False
    return True


# -- polynomial helpers over F_p (digit-tuple representation) ----------------


def _decode(value: int, p: int, width: int) -> list[int]:
    digits = []
    for _ in range(width):
        digits.append(value % p)
        value //= p
    return digits


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
        self._powers = p ** np.arange(self.degree, dtype=np.int64)
        # row j: the digits of x^(degree + j) mod the modulus, j < degree - 1
        self._reductions = np.array(
            [_poly_divmod([0] * (self.degree + j) + [1], self.modulus, p)[: self.degree]
             for j in range(self.degree - 1)],
            dtype=np.int64,
        ).reshape(self.degree - 1, self.degree)
        self._tables_built = False
        # column i: the digits of (x^i)^q
        self.frobenius_matrix = self._digits(self.vpow(self._powers, self.q))[0].T.copy()
        self._validate_frobenius()
        self._k_elements: tuple[int, ...] | None = None
        self._k_basis: tuple[int, ...] | None = None
        self._k_coords: np.ndarray | None = None
        if size <= FIELD_TABLE_LIMIT:
            self._build_tables()

    # -- digit-vector arithmetic -------------------------------------------

    def _digits(self, *arrays) -> list[np.ndarray]:
        """Base-p digit arrays (..., degree) of the given elements, after sizing the digit
        temporaries of their broadcast shape: a product holds 2 degree - 1 digits and a term."""
        arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
        check_buffer(np.broadcast(*arrays).size * 3 * self.degree, 8, "field digit arrays")
        return [a[..., None] // self._powers % self.p for a in arrays]

    def _value(self, digits: np.ndarray) -> np.ndarray:
        return digits @ self._powers

    def _mul_digits(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Digits of x * y for broadcasting digit arrays: the polynomial product,
        its terms of degree deg + j folded back through x^(deg + j) mod the modulus."""
        p, deg = self.p, self.degree
        prod = np.zeros((*np.broadcast(x, y).shape[:-1], 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            prod[..., i : i + deg] += x[..., i, None] * y
        prod %= p
        out = prod[..., deg:] @ self._reductions
        out += prod[..., :deg]
        out %= p
        return out

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
        nullity = deg - mat_rank(self, (self.frobenius_matrix - eye) % p)
        if p**nullity != self.q:
            raise DimensionFailure("fixed field of frobenius is not the base field")

    # -- dense tables ----------------------------------------------------

    def _build_tables(self) -> None:
        """The five tables, from the digit-vector operations they then replace.

        Row a = c x^i + a' of add and mul, with 0 < c < p and a' < p^i, is the
        row of c x^i from ``vadd`` or ``vmul`` combined with the row of a'
        through the add table: a + b = c x^i + (a' + b), a b = c x^i b + a' b.
        """
        size, p = self.size, self.p
        check_buffer(size * size, 8, "field multiplication table")
        every = np.arange(size, dtype=np.int64)
        add = np.empty((size, size), dtype=np.int64)
        mul = np.empty((size, size), dtype=np.int64)
        add[0], mul[0] = every, 0
        starts = self._powers.tolist()
        tops = [np.arange(1, p, dtype=np.int64)[:, None] * lo for lo in starts]  # the c x^i
        for lo, top in zip(starts, tops):
            add[lo : lo * p] = self.vadd(top, every)[:, add[:lo]].reshape(-1, size)
        # mul rows read the whole add table
        for lo, top in zip(starts, tops):
            mul[lo : lo * p] = add[self.vmul(top, every)[:, None], mul[:lo]].reshape(-1, size)
        self.add_table, self.mul_table = add, mul
        self.neg_table = self.vneg(every)
        self.frob_table = self.vfrob(every)
        # the unique b with a * b = 1; row 0 has no 1, so inv_table[0] = 0
        self.inv_table = np.argmax(mul == 1, axis=1).astype(np.int64)
        self._tables_built = True

    # -- array operations: table gathers, or digit-vector arithmetic -------

    def vadd(self, a, b) -> np.ndarray:
        """Array counterpart of add, broadcasting like numpy."""
        if self._tables_built:
            return self.add_table[a, b]
        da, db = self._digits(a, b)
        return self._value((da + db) % self.p)

    def vneg(self, a) -> np.ndarray:
        if self._tables_built:
            return self.neg_table[a]
        (da,) = self._digits(a)
        return self._value(-da % self.p)

    def vmul(self, a, b) -> np.ndarray:
        if self._tables_built:
            return self.mul_table[a, b]
        return self._value(self._mul_digits(*self._digits(a, b)))

    def vpow(self, a, e: int) -> np.ndarray:
        """Array counterpart of pow, by square-and-multiply, with 0^0 = 1."""
        a = np.asarray(a, dtype=np.int64)
        if e < 0:
            a, e = self.vinv(a), -e
        result = np.ones_like(a)
        if e:
            # the same power of every element, 0 included, since e stays positive
            e = (e - 1) % (self.size - 1) + 1
        while e:
            if e & 1:
                result = self.vmul(result, a)
            a = self.vmul(a, a)
            e >>= 1
        return result

    def vinv(self, a) -> np.ndarray:
        """Array counterpart of inv; every entry must be nonzero."""
        if self._tables_built:
            return self.inv_table[a]
        return self.vpow(a, self.size - 2)

    def vfrob(self, a, j: int = 1) -> np.ndarray:
        if self._tables_built:
            a = np.asarray(a)
            for _ in range(j % self.n):
                a = self.frob_table[a]
            return a
        (da,) = self._digits(a)
        for _ in range(j % self.n):
            da = da @ self.frobenius_matrix.T % self.p
        return self._value(da)

    # -- element operations: the array operations on one element ----------

    def add(self, a: int, b: int) -> int:
        return int(self.vadd(a, b))

    def neg(self, a: int) -> int:
        return int(self.vneg(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self.vinv(a))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return int(self.vpow(a, e))

    def frob(self, a: int, j: int = 1) -> int:
        return int(self.vfrob(a, j))

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
        k = np.array(self.k_elements, dtype=np.int64)
        # greedily the least element outside the k-span of those before it
        basis: list[int] = []
        span, in_span = np.zeros(1, dtype=np.int64), np.arange(self.size) == 0
        while len(basis) < self.n and not in_span.all():
            basis.append(int(np.argmin(in_span)))
            span = self.vadd(span[:, None], self.vmul(k, basis[-1])).ravel()
            in_span[span] = True
        if len(basis) != self.n:
            raise DimensionFailure(f"base-field basis has {len(basis)} elements, expected {self.n}")
        # every coefficient tuple, in itertools.product order, and its value
        combos = k[np.stack(np.unravel_index(np.arange(self.size), (self.q,) * self.n), axis=-1)]
        values = functools.reduce(self.vadd, self.vmul(combos, np.array(basis)).T)
        if (np.bincount(values, minlength=self.size) != 1).any():
            raise DimensionFailure("base-field coordinates do not cover the field")
        self._k_basis = tuple(basis)
        self._k_coords = np.empty_like(combos)
        self._k_coords[values] = combos

    @property
    def k_basis(self) -> tuple[int, ...]:
        self._ensure_coords()
        return self._k_basis

    def k_coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a K-element over the base field, in k_basis."""
        return tuple(self.vk_coords(a).tolist())

    def vk_coords(self, a) -> np.ndarray:
        """Array counterpart of k_coords: a (*a.shape, n) array."""
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


def rref(tower: FqTower, rows) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form over the tower by Gauss-Jordan elimination.

    Reduces a copy of rows as one 2-D int array: each pivot step is a row
    swap, the pivot row times the pivot's inverse, and one rank-1 update of
    every other row. The pivot is the first nonzero row at or below the
    pivots found, columns in order. Returns the reduced array, the pivot
    columns and the determinant factor: the product of the pivots met,
    negated once per row swap. A square matrix has determinant equal to the
    factor when every column has a pivot, and 0 otherwise.
    """
    mat = np.array(rows, dtype=np.int64, ndmin=2)
    pivots: list[int] = []
    factor = 1
    for c in range(mat.shape[1]):
        top = len(pivots)
        below = np.flatnonzero(mat[top:, c])
        if not below.size:
            continue
        r = top + int(below[0])
        if r != top:
            mat[[top, r]] = mat[[r, top]]
            factor = tower.neg(factor)
        pivot = int(mat[top, c])
        factor = tower.mul(factor, pivot)
        mat[top] = tower.vmul(mat[top], tower.inv(pivot))
        # every other row loses its column-c entry times the pivot row
        scale = tower.vneg(mat[:, c])
        scale[top] = 0
        mat = tower.vadd(mat, tower.vmul(scale[:, None], mat[top]))
        pivots.append(c)
    return mat, pivots, factor


def mat_rank(tower: FqTower, rows) -> int:
    return len(rref(tower, rows)[1])


def mat_kernel(tower: FqTower, rows) -> list[list[int]]:
    """Kernel basis: one vector per free column, with 1 in that column."""
    reduced, pivots, _ = rref(tower, rows)
    is_free = np.ones(reduced.shape[1], dtype=bool)  # a mask: np.setdiff1d would import numpy.ma
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), reduced.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = tower.vneg(reduced[: len(pivots), free].T)
    return basis.tolist()


def mat_solve(tower: FqTower, rows, rhs) -> tuple[int, ...] | None:
    """A solution x of rows . x = rhs (free coordinates 0), or None."""
    n_cols = len(rows[0])
    reduced, pivots, _ = rref(tower, np.column_stack([rows, rhs]))
    if pivots and pivots[-1] == n_cols:
        return None
    out = np.zeros(n_cols, dtype=np.int64)
    out[pivots] = reduced[: len(pivots), n_cols]
    return tuple(out.tolist())


def mat_det(tower: FqTower, a) -> int:
    _, pivots, factor = rref(tower, a)
    return factor if len(pivots) == len(a) else 0


def mat_inv(tower: FqTower, a) -> Matrix | None:
    m = len(a)
    reduced, pivots, _ = rref(tower, np.column_stack([a, np.eye(m, dtype=np.int64)]))
    if pivots[:m] != list(range(m)):
        return None
    return as_matrix(reduced[:, m:])


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
    """(mats, det, ranks) chunks of the invertible (det 1 if special) matrices_over values.

    The ranks come from :func:`product_chunks` at 16 times the m * m row width:
    each chunk's Leibniz terms and adjugates hold several arrays of its size."""
    for keys, digits in product_chunks((len(values),) * m * m, 16 * m * m, "matrix scan chunk"):
        mats = values[digits.T].reshape(m, m, len(keys))
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
