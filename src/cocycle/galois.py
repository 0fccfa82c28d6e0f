"""Galois descent over finite field towers.

Semilinear actions v -> A_j . v^(frob^j) of the cyclic Galois group, bases
of invariant vectors by base-field linear algebra (no averaging map, which
can vanish in characteristic p), exhaustive Hilbert-90 style cocycle scans
for GL_m and SL_m, and two-route classification of tensor forms. Scans and
forms make one pass over the chunked GL_m/SL_m stream of ``fields``,
keeping a dense table of coboundaries by matrix key and each chunk's survivors.
Every matrix product, Frobenius twist and elimination runs on arrays of
``fields``, and tuples stay at the API boundary: ``SemilinearAction.mats``,
``TensorOnV.coeffs`` and the report fields.

Cyclic cocycles are stored through their generator matrix A: the value at
frob^j is A * A^frob * ... * A^(frob^(j-1)), the norm condition
N(A) = A A^frob ... A^(frob^(n-1)) = I is the cocycle condition, and
coboundaries are exactly B^-1 * B^frob. The transport cocycle of a form
with transporter g is j -> g^-1 * g^(frob^j).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import cohomology, groups
from .cohomology import GammaGroup, H1Set, match_blocks
from .errors import (
    EXHAUSTIVE_INDEPENDENCE_SIZE,
    CounterexampleFound,
    DimensionFailure,
    MatchFailure,
    check_buffer,
)
from .fields import (
    FqTower,
    Matrix,
    as_matrix,
    batch_det,
    batch_inv,
    batch_key,
    batch_mul,
    check_matrix_count,
    general_linear,
    invertible_matrices,
    mat_inv,
    mat_kernel,
    mat_rank,
    matrices_over,
)
from .groups import distinct_sorted, lookup_sorted


def automorphism_independence_check(tower: FqTower) -> bool:
    """No nonzero K-linear combination of the Frobenius powers vanishes on K.

    Always verified by a rank computation on the matrix (b^(q^j)) over an
    F_p-spanning set; additionally cross-checked exhaustively over all
    coefficient tuples when the tower is small enough.
    """
    n, spanning = tower.n, tower.p ** np.arange(tower.degree)  # encodings of x^i
    rows = np.stack([tower.vfrob(spanning, j) for j in range(n)], axis=1)
    independent = mat_rank(tower, rows) == n
    if tower.size**n <= EXHAUSTIVE_INDEPENDENCE_SIZE:
        # all nonzero (c_j) as one batch of 1 x n matrices, combos[j] holding
        # c_j; sum_j c_j x^(q^j) is dropped at the first x where it is nonzero
        frobs = np.stack([tower.vfrob(np.arange(tower.size), j) for j in range(n)])  # x^(q^j)
        combos = np.stack(np.unravel_index(np.arange(1, tower.size**n), (tower.size,) * n))
        for x in range(tower.size):
            if not combos.shape[1]:
                break
            combos = combos[:, batch_mul(tower, combos[None], frobs[:, x, None])[0, 0] == 0]
        if (combos.shape[1] == 0) != independent:
            raise MatchFailure("rank and exhaustive independence checks disagree")
    return independent


def _entry_major(mats, dim: int) -> np.ndarray:
    """Tuple matrices as one entry-major (dim, dim, len(mats)) array."""
    if any(len(a) != dim or any(len(row) != dim for row in a) for a in mats):
        raise ValueError(f"semilinear action matrices must be {dim} x {dim}")
    return np.array(mats, dtype=np.int64).reshape(len(mats), dim, dim).transpose(1, 2, 0)


@dataclass(frozen=True)
class SemilinearAction:
    """Matrices A_j, one per Galois element frob^j, acting as v -> A_j v^(frob^j).

    Composition is checked on all pairs: A_{(i+j) mod n} = A_i * A_j^(frob^i).
    """

    tower: FqTower
    dim: int
    mats: tuple[Matrix, ...]

    @staticmethod
    def make(tower: FqTower, dim: int, mats) -> SemilinearAction:
        mats = tuple(tuple(tuple(int(x) for x in row) for row in m) for m in mats)
        if len(mats) != tower.n:
            raise ValueError("one matrix per Galois group element required")
        arr = _entry_major(mats, dim)
        if not np.array_equal(arr[:, :, 0], np.eye(dim)):
            raise ValueError("the identity Galois element must act by the identity matrix")
        if any(mat_inv(tower, arr[:, :, j]) is None for j in range(tower.n)):
            raise ValueError("semilinear action matrices must be invertible")
        # got[:, :, i, j] = A_i A_j^(frob^i), to equal A_((i + j) mod n)
        frobs = np.stack([tower.vfrob(arr, i) for i in range(tower.n)], axis=2)
        got = batch_mul(tower, arr[:, :, :, None], frobs)
        expected = arr[:, :, (np.arange(tower.n)[:, None] + np.arange(tower.n)) % tower.n]
        bad = np.argwhere((got != expected).any(axis=(0, 1)))
        if len(bad):
            raise ValueError(f"composition law fails at Galois pair ({bad[0][0]}, {bad[0][1]})")
        return SemilinearAction(tower, dim, mats)

    @staticmethod
    def from_generator(tower: FqTower, dim: int, gen: Matrix) -> SemilinearAction:
        """Extend a generator matrix along the cyclic group by the composition law."""
        gen = _entry_major([gen], dim)[:, :, 0]
        mats = [np.eye(dim, dtype=np.int64)]
        for j in range(1, tower.n):
            mats.append(batch_mul(tower, mats[-1], tower.vfrob(gen, j - 1)))
        return SemilinearAction.make(tower, dim, mats)

    def apply(self, j: int, v: tuple[int, ...]) -> tuple[int, ...]:
        a = _entry_major(self.mats, self.dim)[:, :, j % self.tower.n]
        w = self.tower.vfrob(np.array(v, dtype=np.int64)[:, None], j)
        return tuple(batch_mul(self.tower, a, w)[:, 0].tolist())


def invariant_basis(action: SemilinearAction) -> tuple[tuple[int, ...], ...]:
    """A base-field basis of the fixed vectors {v : A_j v^(frob^j) = v for all j}.

    Solved as a k-linear kernel problem in the k-coordinates of K^m; the
    fixed space must have k-dimension m (DimensionFailure otherwise), and
    every returned vector is re-checked against the definition.
    """
    tower, m, n = action.tower, action.dim, action.tower.n
    mats, basis = _entry_major(action.mats, m), np.array(tower.k_basis)
    # column i*n + j: k-coordinates of A_1 (b_j e_i)^frob - b_j e_i, where
    # A_1 (b_j e_i)^frob is column i of A_1 times b_j^frob
    moved = tower.vmul(mats[:, :, 1 % n, None], tower.vfrob(basis))
    moved = tower.vadd(moved, tower.vneg(np.eye(m, dtype=np.int64)[:, :, None] * basis))
    coords = tower.vk_coords(moved.reshape(m, m * n))
    kernel = mat_kernel(tower, np.transpose(coords, (0, 2, 1)).reshape(m * n, m * n))
    if len(kernel) != m:
        raise DimensionFailure(
            f"fixed space has k-dimension {len(kernel)}, expected {m}"
        )
    # column v of vectors: entry i is sum_j kernel[v][i*n + j] b_j
    kernel = np.array(kernel, dtype=np.int64).reshape(m, m, n).transpose(1, 2, 0)
    vectors = batch_mul(tower, kernel, basis[:, None])[:, 0]
    for j in range(n):
        if (batch_mul(tower, mats[:, :, j], tower.vfrob(vectors, j)) != vectors).any():
            raise MatchFailure("returned vector is not invariant")
    if mat_rank(tower, vectors.T) != m:
        raise DimensionFailure("invariant vectors are not K-linearly independent")
    return tuple(map(tuple, vectors.T.tolist()))


# ---------------------------------------------------------------------------
# Hilbert 90 scans


@dataclass(frozen=True)
class CocycleScanReport:
    """Exhaustive check that every norm-one matrix is a coboundary."""

    tower: FqTower
    dim: int
    special: bool
    group_size: int
    n_cocycles: int
    n_coboundaries: int  # distinct B^-1 B^frob over the group
    witness_sample: tuple[tuple[Matrix, Matrix], ...]  # (cocycle generator, B)


_WITNESS_SAMPLE_SIZE = 8


def _coboundary_keys(tower: FqTower, mats: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Keys of the coboundaries B^-1 B^frob of a batch B with inverses inv."""
    return batch_key(tower, batch_mul(tower, inv, tower.vfrob(mats)))


def _coboundary_scan(tower: FqTower, m: int, special: bool = False):
    """GL_m (SL_m if special) as (mats, inv, keys) chunks, and a table that drawing
    them fills: table[c] is the least key, so the first witness, of a B with
    coboundary B^-1 B^frob of key c, or len(table) if no B has that coboundary."""
    chunks = general_linear(tower, m, special)  # the matrix bound fires first
    total = tower.size ** (m * m)  # at most DEFAULT_MAX_MATRICES, so a key fits int32
    check_buffer(total, 4, "coboundary table")
    table = np.full(total, total, dtype=np.int32)

    def fill():
        for mats, det, keys in chunks:
            inv = batch_inv(tower, mats, det)
            np.minimum.at(table, _coboundary_keys(tower, mats, inv), keys.astype(table.dtype))
            yield mats, inv, keys

    return table, fill()


def _decode(tower: FqTower, m: int, keys: np.ndarray) -> list[Matrix]:
    """The matrices with the given batch_key ranks."""
    return [as_matrix(a) for a in np.moveaxis(matrices_over(np.arange(tower.size), m, keys), 2, 0)]


def hilbert90_verify(tower: FqTower, m: int, special: bool = False) -> CocycleScanReport:
    """Scan GL_m (or SL_m) for norm-one matrices and trivialize each one.

    One pass keeps the keys of the matrices with norm A A^frob ... A^(frob^(n-1))
    = I and looks each up in :func:`_coboundary_scan`'s table of first witnesses;
    one with none raises CounterexampleFound: a bug, by the classification theorems.
    """
    table, chunks = _coboundary_scan(tower, m, special)
    group_size, found = 0, []
    for mats, _, keys in chunks:
        norm = mats
        for j in range(1, tower.n):
            norm = batch_mul(tower, norm, tower.vfrob(mats, j))
        found.append(keys[(norm == np.eye(m, dtype=np.int64)[:, :, None]).all(axis=(0, 1))])
        group_size += len(keys)
    cocycles = np.concatenate(found)
    witnesses = table[cocycles]
    if (witnesses == len(table)).any():
        a = _decode(tower, m, cocycles[witnesses == len(table)][:1])[0]
        raise CounterexampleFound(f"norm-one matrix {a} over {tower!r} is not a coboundary")
    n_coboundaries = int(np.count_nonzero(table < len(table)))
    if n_coboundaries != len(cocycles):
        raise CounterexampleFound("coboundaries produced a non-cocycle (norm condition bug)")
    shown = slice(_WITNESS_SAMPLE_SIZE)
    sample = tuple(zip(_decode(tower, m, cocycles[shown]), _decode(tower, m, witnesses[shown])))
    return CocycleScanReport(tower, m, special, group_size, len(cocycles), n_coboundaries, sample)


def det_image_on_rational_points(tower: FqTower, m: int) -> set[int]:
    """Image of det: GL_m(k) -> k*, for the surjectivity half of SL triviality."""
    check_matrix_count(tower, m)
    chunks = invertible_matrices(tower, np.array(tower.k_elements), m, False)
    image = {x for _, det, _ in chunks for x in distinct_sorted(det).tolist()}
    if not image <= set(tower.k_elements):
        raise CounterexampleFound("det of a rational matrix is not in the base field")
    return image


def sl_h1_verify(tower: FqTower, m: int) -> CocycleScanReport:
    """SL-cocycles are SL-coboundaries, plus det surjectivity on rational points."""
    report = hilbert90_verify(tower, m, special=True)
    image = det_image_on_rational_points(tower, m)
    expected = {x for x in tower.k_elements if x != 0}
    if image != expected:
        raise CounterexampleFound(
            f"det image on rational points is {sorted(image)}, expected all of k*"
        )
    return report


def units_gamma_group(tower: FqTower) -> tuple[GammaGroup, tuple[int, ...]]:
    """K* as a finite group with the Frobenius action; returns (action, unit list).

    Cross-check helper: the generic cocycle engine on this action must find a
    single class, matching the m = 1 scan.
    """
    units = np.arange(1, tower.size)  # unit u is group element u - 1
    group = groups.group_table(len(units), lambda r: tower.vmul(units[r, None], units) - 1, 1)
    action = np.stack([tower.vfrob(units, j) for j in range(tower.n)]) - 1
    return GammaGroup(groups.cyclic_group(tower.n), group, action), tuple(units.tolist())


# ---------------------------------------------------------------------------
# tensors and forms


@dataclass(frozen=True)
class TensorOnV:
    """Linear map V^(x l) -> V^(x r) stored as an m^r x m^l coefficient matrix."""

    tower: FqTower
    dim: int
    l: int
    r: int
    coeffs: Matrix

    @staticmethod
    def make(tower: FqTower, dim: int, l: int, r: int, coeffs) -> TensorOnV:
        mat = tuple(tuple(int(x) for x in row) for row in coeffs)
        if len(mat) != dim**r or any(len(row) != dim**l for row in mat):
            raise ValueError(f"coefficients must be a {dim**r} x {dim**l} matrix")
        return TensorOnV(tower, dim, l, r, mat)

    def defined_over_base(self) -> bool:
        return self.frob().coeffs == self.coeffs

    def frob(self, j: int = 1) -> TensorOnV:
        coeffs = self.tower.vfrob(np.array(self.coeffs, dtype=np.int64), j)
        return replace(self, coeffs=as_matrix(coeffs))


def quadratic_form_tensor(tower: FqTower, gram: Matrix) -> TensorOnV:
    """Symmetric bilinear form as a (2, 0) tensor from its Gram matrix."""
    m = len(gram)
    row = tuple(gram[i][j] for i in range(m) for j in range(m))
    return TensorOnV.make(tower, m, 2, 0, (row,))


def _transport(tensor: TensorOnV, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Coefficients of g(tau) for a batch of g with inverses g_inv, one flat row each.

    g(tau) = g^(x r) o tau o (g^(x l))^-1, applied one tensor factor at a
    time: g on each of the r output indices, g^-1 on each of the l inputs.
    """
    tower, m, l, r = tensor.tower, tensor.dim, tensor.l, tensor.r
    coeffs = np.array(tensor.coeffs, dtype=np.int64).reshape((m,) * (r + l) + (1,))
    for axis in range(r + l):
        front = np.moveaxis(coeffs, axis, 0)
        rest = front.reshape(m, 1, m ** (r + l - 1), front.shape[-1])  # a chunk may be empty
        out = batch_mul(tower, (g if axis < r else g_inv.transpose(1, 0, 2))[:, :, None], rest)
        coeffs = np.moveaxis(out.reshape(front.shape[:-1] + out.shape[-1:]), 0, axis)
    coeffs = np.broadcast_to(coeffs, (m,) * (r + l) + (g.shape[2],))
    return coeffs.reshape(m ** (r + l), -1).T


@dataclass(frozen=True)
class FormsReport:
    """Two-route classification of the forms of a tensor."""

    tensor: TensorOnV
    stabilizer_size: int
    direct_orbits: tuple[tuple[Matrix, ...], ...]  # invariant tensors per k-orbit
    h1_stabilizer: H1Set
    matching: tuple[tuple[int, int], ...]  # (direct orbit index, h1 class index)

    @property
    def n_classes(self) -> int:
        return len(self.direct_orbits)


def classify_forms(tower: FqTower, tensor: TensorOnV) -> FormsReport:
    """Count the forms of a tensor two independent ways and match them.

    Direct route: Galois-invariant tensors in the GL_m(K)-orbit, partitioned
    into GL_m(k)-orbits. Cohomological route: classes of stabilizer-valued
    cocycles (their images in GL are all coboundaries; checked). The transport
    map orbit -> class must be a bijection, else BijectionFailure. Of each GL
    chunk only the stabilizer, invariant transports and rational matrices stay.
    """
    if not tensor.defined_over_base():
        raise ValueError("reference tensor must be defined over the base field")
    m, n, cols = tensor.dim, tower.n, tensor.dim**tensor.l
    cob_table, chunks = _coboundary_scan(tower, m)
    stab_keys, rational_keys, orbit = [], [], {}
    for g, g_inv, keys in chunks:
        moved = _transport(tensor, g, g_inv)
        stab_keys.append(keys[(moved == np.ravel(tensor.coeffs)).all(axis=1)])
        # each invariant tensor of the orbit with its first transporter (earlier chunks win)
        invariant = (tower.vfrob(moved) == moved).all(axis=1)
        rows, first = np.unique(moved[invariant], axis=0, return_index=True)
        orbit = dict(zip(map(tuple, rows.tolist()), keys[invariant][first].tolist())) | orbit
        rational_keys.append(keys[(tower.vfrob(g) == g).all(axis=(0, 1))])
    stab_keys = np.concatenate(stab_keys)
    k_gl = matrices_over(np.arange(tower.size), m, np.concatenate(rational_keys))
    k_gl_inv = batch_inv(tower, k_gl, batch_det(tower, k_gl))
    remaining = set(orbit)
    orbits_flat: list[list[tuple[int, ...]]] = []
    while remaining:
        seed_coeffs = as_matrix(np.reshape(min(remaining), (-1, cols)))
        seed = TensorOnV(tower, m, tensor.l, tensor.r, seed_coeffs)
        members = set(map(tuple, _transport(seed, k_gl, k_gl_inv).tolist()))
        if not members <= orbit.keys():
            raise MatchFailure("rational transport left the orbit")
        if not members <= remaining:
            raise MatchFailure("rational orbits do not partition the invariants")
        orbits_flat.append(sorted(members))
        remaining -= members

    # stabilizer as a finite group with the Frobenius action; its keys are
    # sorted because GL is enumerated in lexicographic order
    stab = matrices_over(np.arange(tower.size), m, stab_keys)

    def stab_index(mats: np.ndarray, failure: str) -> np.ndarray:
        at = lookup_sorted(stab_keys, batch_key(tower, mats))
        if (at < 0).any():
            raise CounterexampleFound(failure)
        return at

    def products(r):  # per pair an m x m product, batch_mul's 3 temporaries and a key
        block = batch_mul(tower, stab[:, :, r, None], stab[:, :, None, :])
        return stab_index(block, "stabilizer is not closed under multiplication")

    group = groups.group_table(len(stab_keys), products, m * m + 4)
    frobs = np.stack([tower.vfrob(stab, j) for j in range(n)], axis=2)
    action = stab_index(frobs, "stabilizer is not Frobenius-stable")
    h1_stab = cohomology.h1(GammaGroup(groups.cyclic_group(n), group, action.tolist()))

    # Hilbert 90 on the ambient group: every class dies in GL
    if n > 1:
        gens = h1_stab.classes.rows[:, 1]
        if (cob_table[stab_keys[gens]] == len(cob_table)).any():
            raise CounterexampleFound(
                "stabilizer cocycle is not a GL coboundary (Hilbert 90 violation)"
            )

    # transport cocycles j -> g^-1 g^(frob^j) of every invariant tensor
    g = matrices_over(np.arange(tower.size), m, [orbit[t] for ts in orbits_flat for t in ts])
    g_frobs = np.stack([tower.vfrob(g, j) for j in range(n)], axis=2)
    cocycles = batch_mul(tower, batch_inv(tower, g, batch_det(tower, g))[:, :, None], g_frobs)
    # one row per invariant tensor, in the order of orbits_flat
    values = stab_index(cocycles, "transport cocycle left the stabilizer").T
    row_class = iter(h1_stab.class_indices(values).tolist())
    labels = [[next(row_class) for _ in members] for members in orbits_flat]
    classes = match_blocks(labels, range(h1_stab.order), "rational orbits -> H1 classes")
    direct_orbits = [
        tuple(as_matrix(np.reshape(t, (-1, cols))) for t in members) for members in orbits_flat
    ]
    return FormsReport(
        tensor, len(stab_keys), tuple(direct_orbits), h1_stab, tuple(enumerate(classes))
    )
