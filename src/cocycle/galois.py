"""Galois descent over finite field towers.

Semilinear actions v -> A_j . v^(frob^j) of the cyclic Galois group, bases
of invariant vectors by base-field linear algebra (no averaging map, which
can vanish in characteristic p), exhaustive Hilbert-90 style cocycle scans
for GL_m and SL_m, and two-route classification of tensor forms. Scans and
forms run on the chunked GL_m/SL_m stream of ``fields``, one code path for
every m and for towers with or without dense tables.

Cyclic cocycles are stored through their generator matrix A: the value at
frob^j is A * A^frob * ... * A^(frob^(j-1)), the norm condition
N(A) = A A^frob ... A^(frob^(n-1)) = I is the cocycle condition, and
coboundaries are exactly B^-1 * B^frob. The transport cocycle of a form
with transporter g is j -> g^-1 * g^(frob^j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cohomology, groups
from .cohomology import GammaGroup, H1Set, match_blocks
from .errors import (
    EXHAUSTIVE_INDEPENDENCE_SIZE,
    MAX_STABILIZER,
    CounterexampleFound,
    DimensionFailure,
    MatchFailure,
    SizeLimit,
)
from .fields import (
    FqTower,
    Matrix,
    as_matrix,
    batch_inv,
    batch_key,
    batch_mul,
    check_matrix_count,
    general_linear,
    invertible_matrices,
    mat_frob,
    mat_identity,
    mat_inv,
    mat_kernel,
    mat_mul,
    mat_rank,
    mat_vec,
    matrices_over,
    vec_frob,
)
from .groups import distinct_sorted, lookup_sorted


def automorphism_independence_check(tower: FqTower) -> bool:
    """No nonzero K-linear combination of the Frobenius powers vanishes on K.

    Always verified by a rank computation on the matrix (b^(q^j)) over an
    F_p-spanning set; additionally cross-checked exhaustively over all
    coefficient tuples when the tower is small enough.
    """
    n = tower.n
    spanning = [tower.p**i for i in range(tower.degree)]  # encodings of x^i
    rows = [[tower.frob(b, j) for j in range(n)] for b in spanning]
    rank = mat_rank(tower, rows)
    independent = rank == n
    if tower.size**n <= EXHAUSTIVE_INDEPENDENCE_SIZE:
        brute = True
        for coeffs in itertools.product(range(tower.size), repeat=n):
            if not any(coeffs):
                continue
            if all(
                _combo_vanishes(tower, coeffs, x) for x in range(tower.size)
            ):
                brute = False
                break
        if brute != independent:
            raise MatchFailure("rank and exhaustive independence checks disagree")
    return independent


def _combo_vanishes(tower: FqTower, coeffs, x: int) -> bool:
    acc = 0
    for j, c in enumerate(coeffs):
        acc = tower.add(acc, tower.mul(c, tower.frob(x, j)))
    return acc == 0


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
        if mats[0] != mat_identity(tower, dim):
            raise ValueError("the identity Galois element must act by the identity matrix")
        for m in mats:
            if mat_inv(tower, m) is None:
                raise ValueError("semilinear action matrices must be invertible")
        for i in range(tower.n):
            for j in range(tower.n):
                expected = mats[(i + j) % tower.n]
                got = mat_mul(tower, mats[i], mat_frob(tower, mats[j], i))
                if got != expected:
                    raise ValueError(f"composition law fails at Galois pair ({i}, {j})")
        return SemilinearAction(tower, dim, mats)

    @staticmethod
    def from_generator(tower: FqTower, dim: int, gen: Matrix) -> SemilinearAction:
        """Extend a generator matrix along the cyclic group by the composition law."""
        mats = [mat_identity(tower, dim)]
        for j in range(1, tower.n):
            mats.append(mat_mul(tower, mats[-1], mat_frob(tower, gen, j - 1)))
        return SemilinearAction.make(tower, dim, mats)

    def apply(self, j: int, v: tuple[int, ...]) -> tuple[int, ...]:
        return mat_vec(self.tower, self.mats[j % self.tower.n], vec_frob(self.tower, v, j))


def invariant_basis(action: SemilinearAction) -> tuple[tuple[int, ...], ...]:
    """A base-field basis of the fixed vectors {v : A_j v^(frob^j) = v for all j}.

    Solved as a k-linear kernel problem in the k-coordinates of K^m; the
    fixed space must have k-dimension m (DimensionFailure otherwise), and
    every returned vector is re-checked against the definition.
    """
    tower, m, n = action.tower, action.dim, action.tower.n
    # column i*n + j: k-coordinates of A_1 (b_j e_i)^frob - b_j e_i
    columns = []
    for i in range(m):
        for b in tower.k_basis:
            image = action.apply(1, tuple(b if r == i else 0 for r in range(m)))
            columns.append([c for x in image for c in tower.k_coords(x)])
    rows = [list(row) for row in zip(*columns)]
    for t in range(m * n):
        rows[t][t] = tower.sub(rows[t][t], 1)
    kernel = mat_kernel(tower, rows)
    if len(kernel) != m:
        raise DimensionFailure(
            f"fixed space has k-dimension {len(kernel)}, expected {m}"
        )
    vectors = [
        tuple(tower.from_k_coords(coords[i * n : (i + 1) * n]) for i in range(m))
        for coords in kernel
    ]
    for v in vectors:
        for j in range(n):
            if action.apply(j, v) != v:
                raise MatchFailure("returned vector is not invariant")
    if mat_rank(tower, vectors) != m:
        raise DimensionFailure("invariant vectors are not K-linearly independent")
    return tuple(vectors)


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


def _decode(tower: FqTower, m: int, keys: np.ndarray) -> list[Matrix]:
    """The matrices with the given batch_key ranks."""
    mats = matrices_over(np.arange(tower.size), m, keys)
    return [as_matrix(mats[:, :, i]) for i in range(len(keys))]


def hilbert90_verify(tower: FqTower, m: int, special: bool = False) -> CocycleScanReport:
    """Scan GL_m (or SL_m) for norm-one matrices and trivialize each one.

    One pass over the group stream for every m, keeping only keys: of each
    coboundary B^-1 B^frob with its B, and of each matrix with norm
    A A^frob ... A^(frob^(n-1)) = I. One sort indexes the coboundaries with
    their first witnesses in (lexicographic) enumeration order; each norm-one
    key is looked up there. A norm-one matrix with no coboundary witness
    raises CounterexampleFound: a bug, by the classification theorems.
    """
    chunks = []
    for mats, det, keys in general_linear(tower, m, special):
        norm = mats
        for j in range(1, tower.n):
            norm = batch_mul(tower, norm, tower.vfrob(mats, j))
        cob = _coboundary_keys(tower, mats, batch_inv(tower, mats, det))
        norm_one = (norm == np.eye(m, dtype=np.int64)[:, :, None]).all(axis=(0, 1))
        chunks.append((cob, keys, keys[norm_one]))
    cob_keys, group_keys, cocycles = (np.concatenate(c) for c in zip(*chunks))
    del chunks
    cob_keys, first = np.unique(cob_keys, return_index=True)
    hits = lookup_sorted(cob_keys, cocycles)
    if (hits < 0).any():
        a = _decode(tower, m, cocycles[hits < 0][:1])[0]
        raise CounterexampleFound(f"norm-one matrix {a} over {tower!r} is not a coboundary")
    if len(cob_keys) != len(cocycles):
        raise CounterexampleFound("coboundaries produced a non-cocycle (norm condition bug)")
    shown = slice(_WITNESS_SAMPLE_SIZE)
    witnesses = group_keys[first[hits[shown]]]
    sample = tuple(zip(_decode(tower, m, cocycles[shown]), _decode(tower, m, witnesses)))
    return CocycleScanReport(
        tower, m, special, len(group_keys), len(cocycles), len(cob_keys), sample
    )


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
    units = tuple(x for x in range(1, tower.size))
    pos = {u: i for i, u in enumerate(units)}
    table = [[pos[tower.mul(a, b)] for b in units] for a in units]
    group = groups.make_group(table)
    gamma = groups.cyclic_group(tower.n)
    action = [[pos[tower.frob(u, j)] for u in units] for j in range(tower.n)]
    return GammaGroup(gamma, group, action), units


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
            raise ValueError(
                f"coefficients must be a {dim**r} x {dim**l} matrix"
            )
        return TensorOnV(tower, dim, l, r, mat)

    def defined_over_base(self) -> bool:
        return all(self.tower.in_base(x) for row in self.coeffs for x in row)

    def frob(self, j: int = 1) -> TensorOnV:
        return TensorOnV(
            self.tower, self.dim, self.l, self.r, mat_frob(self.tower, self.coeffs, j)
        )


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
        out = []
        for i in range(m):
            acc = None
            for k in range(m):
                term = tower.vmul(g[i, k] if axis < r else g_inv[k, i], front[k])
                acc = term if acc is None else tower.vadd(acc, term)
            out.append(acc)
        coeffs = np.moveaxis(np.array(out), 0, axis)
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
    cocycles (their images in GL are all coboundaries; checked). The
    transport map orbit -> class must be a bijection, else BijectionFailure.
    """
    if not tensor.defined_over_base():
        raise ValueError("reference tensor must be defined over the base field")
    m, n, cols = tensor.dim, tower.n, tensor.dim**tensor.l
    # per GL chunk: det (for the few inverses used later), coboundaries, transports
    chunks = []
    for g, det, _ in general_linear(tower, m):
        g_inv = batch_inv(tower, g, det)
        chunks.append((g, det, _coboundary_keys(tower, g, g_inv), _transport(tensor, g, g_inv).T))
    gl, gl_det, cob_keys, moved = (np.concatenate(c, axis=-1) for c in zip(*chunks))
    del chunks
    moved = np.ascontiguousarray(moved.T)
    stab_pos = np.flatnonzero((moved == np.ravel(tensor.coeffs)).all(axis=1))
    if len(stab_pos) > MAX_STABILIZER:
        raise SizeLimit(f"stabilizer of size {len(stab_pos)} exceeds bound {MAX_STABILIZER}")
    # orbit: each tensor in the GL_m(K)-orbit with its first transporter
    orbit_rows, first = np.unique(moved, axis=0, return_index=True)
    del moved
    orbit = dict(zip(map(tuple, orbit_rows.tolist()), first.tolist()))
    invariants = orbit_rows[(tower.vfrob(orbit_rows) == orbit_rows).all(axis=1)]
    rational = np.flatnonzero((tower.vfrob(gl) == gl).all(axis=(0, 1)))
    k_gl, k_gl_inv = gl[:, :, rational], batch_inv(tower, gl[:, :, rational], gl_det[rational])
    remaining = set(map(tuple, invariants.tolist()))
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
    stab = gl[:, :, stab_pos]
    stab_keys = batch_key(tower, stab)

    def stab_index(mats: np.ndarray, failure: str) -> np.ndarray:
        at = lookup_sorted(stab_keys, batch_key(tower, mats))
        if (at < 0).any():
            raise CounterexampleFound(failure)
        return at

    products = batch_mul(tower, stab[:, :, :, None], stab[:, :, None, :])
    table = stab_index(products, "stabilizer is not closed under multiplication")
    frobs = np.stack([tower.vfrob(stab, j) for j in range(n)], axis=2)
    action = stab_index(frobs, "stabilizer is not Frobenius-stable")
    gamma = groups.cyclic_group(n)
    h1_stab = cohomology.h1(GammaGroup(gamma, groups.make_group(table), action.tolist()))

    # Hilbert 90 on the ambient group: every class dies in GL
    if n > 1:
        gens = [rep.values[1] for rep in h1_stab.classes]
        if (lookup_sorted(distinct_sorted(cob_keys), stab_keys[gens]) < 0).any():
            raise CounterexampleFound(
                "stabilizer cocycle is not a GL coboundary (Hilbert 90 violation)"
            )

    # transport cocycles j -> g^-1 g^(frob^j) of every invariant tensor
    transporters = np.array([orbit[t] for members in orbits_flat for t in members])
    g = gl[:, :, transporters]
    g_frobs = np.stack([tower.vfrob(g, j) for j in range(n)], axis=2)
    cocycles = batch_mul(tower, batch_inv(tower, g, gl_det[transporters])[:, :, None], g_frobs)
    # one row per invariant tensor, in the order of orbits_flat
    values = stab_index(cocycles, "transport cocycle left the stabilizer").T
    row_class = iter(h1_stab.class_indices(values).tolist())
    labels = [[next(row_class) for _ in members] for members in orbits_flat]
    classes = match_blocks(labels, range(h1_stab.order), "rational orbits -> H1 classes")
    direct_orbits = [
        tuple(as_matrix(np.reshape(t, (-1, cols))) for t in members) for members in orbits_flat
    ]
    return FormsReport(
        tensor, len(stab_pos), tuple(direct_orbits), h1_stab, tuple(enumerate(classes))
    )
