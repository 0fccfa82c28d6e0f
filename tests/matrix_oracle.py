"""Reference matrix layer: the hand-written eliminations and GL scans the package used to run.

Eight eliminations (``_fp_rank``, cofactor ``mat_det``, 2x2/Gauss-Jordan
``mat_inv``, ``_field_rank``, ``_field_kernel``, ``_field_solve``,
``_rank_over_base``, ``_det_over_base``), the per-matrix GL/SL enumeration,
both Hilbert 90 scans (table gathers for m <= 2, one matrix at a time
otherwise) and ``classify_forms`` with one ``mat_inv`` per matrix and a
linear search for each trivializer. ``tests/test_matrix.py`` compares the
package's single ``rref`` and batched scan against these results exactly.
"""

from __future__ import annotations

import itertools

import numpy as np

from cocycle.cohomology import GammaGroup, h1
from cocycle.errors import CounterexampleFound, MatchFailure, SizeLimit
from cocycle.fields import FqTower, Matrix
from cocycle.galois import CocycleScanReport, FormsReport, TensorOnV
from cocycle.groups import cyclic_group, make_group

Vector = tuple[int, ...]
DEFAULT_MAX_MATRICES = 1 << 20
_WITNESS_SAMPLE_SIZE = 8


def _fp_rank(mat: np.ndarray, p: int) -> int:
    m = mat % p
    m = m.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, c]), p - 2, p)
        m[rank] = (m[rank] * inv) % p
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
    return rank


def mat_det(tower: FqTower, a: Matrix) -> int:
    m = len(a)
    if m == 1:
        return a[0][0]
    if m == 2:
        return tower.sub(tower.mul(a[0][0], a[1][1]), tower.mul(a[0][1], a[1][0]))
    # cofactor expansion along the first row
    det = 0
    for j in range(m):
        if a[0][j] == 0:
            continue
        minor = tuple(
            tuple(row[t] for t in range(m) if t != j) for row in a[1:]
        )
        term = tower.mul(a[0][j], mat_det(tower, minor))
        det = tower.add(det, term if j % 2 == 0 else tower.neg(term))
    return det


def mat_inv(tower: FqTower, a: Matrix) -> Matrix | None:
    m = len(a)
    det = mat_det(tower, a)
    if det == 0:
        return None
    if m == 1:
        return ((tower.inv(det),),)
    if m == 2:
        dinv = tower.inv(det)
        return (
            (tower.mul(a[1][1], dinv), tower.mul(tower.neg(a[0][1]), dinv)),
            (tower.mul(tower.neg(a[1][0]), dinv), tower.mul(a[0][0], dinv)),
        )
    # Gauss-Jordan for larger sizes
    aug = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pinv = tower.inv(aug[col][col])
        aug[col] = [tower.mul(x, pinv) for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [
                    tower.sub(x, tower.mul(factor, y)) for x, y in zip(aug[r], aug[col])
                ]
    return tuple(tuple(row[m:]) for row in aug)


def mat_identity(tower: FqTower, m: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def mat_frob(tower: FqTower, a: Matrix, j: int = 1) -> Matrix:
    return tuple(tuple(tower.frob(x, j) for x in row) for row in a)


def mat_mul(tower: FqTower, a: Matrix, b: Matrix) -> Matrix:
    m, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(m):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = tower.add(acc, tower.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def enumerate_matrices(tower: FqTower, m: int):
    """All m x m matrices over K, in row-major lexicographic order."""
    for flat in itertools.product(range(tower.size), repeat=m * m):
        yield tuple(tuple(flat[i * m + j] for j in range(m)) for i in range(m))


def enumerate_gl(
    tower: FqTower, m: int, max_matrices: int = DEFAULT_MAX_MATRICES
) -> list[Matrix]:
    total = tower.size ** (m * m)
    if total > max_matrices:
        raise SizeLimit(f"{total} matrices exceed bound {max_matrices}")
    return [a for a in enumerate_matrices(tower, m) if mat_det(tower, a) != 0]


def enumerate_sl(
    tower: FqTower, m: int, max_matrices: int = DEFAULT_MAX_MATRICES
) -> list[Matrix]:
    total = tower.size ** (m * m)
    if total > max_matrices:
        raise SizeLimit(f"{total} matrices exceed bound {max_matrices}")
    return [a for a in enumerate_matrices(tower, m) if mat_det(tower, a) == 1]


def _field_rank(tower: FqTower, rows: list[list[int]]) -> int:
    mat = [row[:] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0]) if mat else 0
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pinv = tower.inv(mat[rank][c])
        mat[rank] = [tower.mul(x, pinv) for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _field_kernel(tower: FqTower, rows: list[list[int]]) -> list[list[int]]:
    """Kernel basis of a matrix over the base field (entries are k-elements)."""
    mat = [row[:] for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pinv = tower.inv(mat[rank][c])
        mat[rank] = [tower.mul(x, pinv) for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(mat[r], mat[rank])]
        pivots.append(c)
        rank += 1
    free = [c for c in range(n_cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = tower.neg(mat[r][fc])
        basis.append(vec)
    return basis


def _field_solve(tower: FqTower, columns: list[Vector], rhs: Vector) -> Vector | None:
    """Solve sum_t c_t columns[t] = rhs over the base field, by RREF."""
    n_rows = len(rhs)
    n_cols = len(columns)
    aug = [[columns[c][r] for c in range(n_cols)] + [rhs[r]] for r in range(n_rows)]
    rank = 0
    pivots = []
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if aug[r][c] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pinv = tower.inv(aug[rank][c])
        aug[rank] = [tower.mul(x, pinv) for x in aug[rank]]
        for r in range(n_rows):
            if r != rank and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(aug[r], aug[rank])]
        pivots.append(c)
        rank += 1
    for r in range(rank, n_rows):
        if aug[r][n_cols] != 0:
            return None
    out = [0] * n_cols
    for r, c in enumerate(pivots):
        out[c] = aug[r][n_cols]
    return tuple(out)


def _rank_over_base(tower: FqTower, vectors: list[Vector]) -> int:
    mat = [list(v) for v in vectors]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pinv = tower.inv(mat[rank][c])
        mat[rank] = [tower.mul(x, pinv) for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [tower.sub(x, tower.mul(f, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _det_over_base(tower: FqTower, mat) -> int:
    m = len(mat)
    work = [list(row) for row in mat]
    det = 1
    for c in range(m):
        pivot = next((r for r in range(c, m) if work[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = tower.neg(det)
        det = tower.mul(det, work[c][c])
        pinv = tower.inv(work[c][c])
        for r in range(c + 1, m):
            if work[r][c] != 0:
                f = tower.mul(work[r][c], pinv)
                work[r] = [
                    tower.sub(x, tower.mul(f, y)) for x, y in zip(work[r], work[c])
                ]
    return det


def _norm_accumulate(tower: FqTower, a: Matrix) -> Matrix:
    acc = a
    for j in range(1, tower.n):
        acc = mat_mul(tower, acc, mat_frob(tower, a, j))
    return acc


def hilbert90_verify(
    tower: FqTower,
    m: int,
    special: bool = False,
    max_matrices: int = DEFAULT_MAX_MATRICES,
) -> CocycleScanReport:
    """Scan GL_m (or SL_m) for norm-one matrices and trivialize each one.

    A norm-one matrix with no coboundary witness raises CounterexampleFound;
    by the classification theorems this indicates an implementation bug.
    """
    total = tower.size ** (m * m)
    if total > max_matrices:
        raise SizeLimit(f"{total} matrices exceed bound {max_matrices}")
    if tower._tables_built and m in (1, 2):
        return _scan_vectorized(tower, m, special)
    return _scan_scalar(tower, m, special, max_matrices)


def _scan_scalar(
    tower: FqTower, m: int, special: bool, max_matrices: int
) -> CocycleScanReport:
    group = (enumerate_sl if special else enumerate_gl)(tower, m, max_matrices)
    ident = mat_identity(tower, m)
    witnesses_by_cocycle: dict[Matrix, Matrix] = {}
    for b in group:
        b_inv = mat_inv(tower, b)
        cocycle = mat_mul(tower, b_inv, mat_frob(tower, b, 1))
        witnesses_by_cocycle.setdefault(cocycle, b)
    n_cocycles = 0
    sample = []
    for a in group:
        if _norm_accumulate(tower, a) != ident:
            continue
        n_cocycles += 1
        witness = witnesses_by_cocycle.get(a)
        if witness is None:
            raise CounterexampleFound(
                f"norm-one matrix {a} over {tower!r} is not a coboundary"
            )
        if len(sample) < _WITNESS_SAMPLE_SIZE:
            sample.append((a, witness))
    assert len(witnesses_by_cocycle) == n_cocycles, (
        "coboundaries produced a non-cocycle (norm condition bug)"
    )
    return CocycleScanReport(
        tower, m, special, len(group), n_cocycles, len(witnesses_by_cocycle), tuple(sample)
    )


def _scan_vectorized(tower: FqTower, m: int, special: bool) -> CocycleScanReport:
    """Table-gather implementation of the scan for m = 1 or 2."""
    size, n = tower.size, tower.n
    mul, add, neg, inv = tower.mul_table, tower.add_table, tower.neg_table, tower.inv_table
    frob = tower.frob_table

    def frob_j(x, j):
        for _ in range(j % n):
            x = frob[x]
        return x

    if m == 1:
        a = np.arange(1, size)
        norm = a.copy()
        for j in range(1, n):
            norm = mul[norm, frob_j(a, j)]
        if special:
            keep = a[a == 1]
        else:
            keep = a
        cocycles = keep[norm[keep - 1] == 1] if not special else keep
        cobs = mul[inv[keep], frob_j(keep, 1)]
        cob_set = set(int(x) for x in cobs)
        sample = []
        for value in cocycles:
            if int(value) not in cob_set:
                raise CounterexampleFound(
                    f"norm-one scalar {int(value)} over {tower!r} is not a coboundary"
                )
            if len(sample) < _WITNESS_SAMPLE_SIZE:
                b = int(keep[int(np.flatnonzero(cobs == value)[0])])
                sample.append((((int(value),),), ((b,),)))
        assert len(cob_set) == len(cocycles)
        return CocycleScanReport(
            tower, 1, special, len(keep), len(cocycles), len(cob_set), tuple(sample)
        )

    idx = np.arange(size**4, dtype=np.int64)
    e00 = idx // size**3 % size
    e01 = idx // size**2 % size
    e10 = idx // size % size
    e11 = idx % size
    det = add[mul[e00, e11], neg[mul[e01, e10]]]
    keep = det == 1 if special else det != 0
    e00, e01, e10, e11 = e00[keep], e01[keep], e10[keep], e11[keep]
    det = det[keep]
    group_size = len(e00)

    def mat2_mul(a, b):
        return (
            add[mul[a[0], b[0]], mul[a[1], b[2]]],
            add[mul[a[0], b[1]], mul[a[1], b[3]]],
            add[mul[a[2], b[0]], mul[a[3], b[2]]],
            add[mul[a[2], b[1]], mul[a[3], b[3]]],
        )

    a_mat = (e00, e01, e10, e11)
    norm = a_mat
    for j in range(1, n):
        norm = mat2_mul(norm, tuple(frob_j(c, j) for c in a_mat))
    is_cocycle = (norm[0] == 1) & (norm[1] == 0) & (norm[2] == 0) & (norm[3] == 1)

    dinv = inv[det]
    b_inv = (mul[e11, dinv], mul[neg[e01], dinv], mul[neg[e10], dinv], mul[e00, dinv])
    b_frob = tuple(frob_j(c, 1) for c in a_mat)
    cob = mat2_mul(b_inv, b_frob)
    encode = ((cob[0] * size + cob[1]) * size + cob[2]) * size + cob[3]
    cob_index: dict[int, int] = {}
    for i, key in enumerate(encode.tolist()):
        cob_index.setdefault(key, i)
    cocycle_pos = np.flatnonzero(is_cocycle)
    sample = []
    for pos in cocycle_pos.tolist():
        key = ((int(e00[pos]) * size + int(e01[pos])) * size + int(e10[pos])) * size + int(
            e11[pos]
        )
        hit = cob_index.get(key)
        if hit is None:
            raise CounterexampleFound(
                f"norm-one matrix encoded {key} over {tower!r} is not a coboundary"
            )
        if len(sample) < _WITNESS_SAMPLE_SIZE:
            a = ((int(e00[pos]), int(e01[pos])), (int(e10[pos]), int(e11[pos])))
            b = ((int(e00[hit]), int(e01[hit])), (int(e10[hit]), int(e11[hit])))
            sample.append((a, b))
    assert len(cob_index) == len(cocycle_pos), (
        "coboundaries produced a non-cocycle (norm condition bug)"
    )
    return CocycleScanReport(
        tower, 2, special, group_size, len(cocycle_pos), len(cob_index), tuple(sample)
    )


def det_image_on_rational_points(
    tower: FqTower, m: int, max_matrices: int = DEFAULT_MAX_MATRICES
) -> set[int]:
    """Image of det: GL_m(k) -> k*, for the surjectivity half of SL triviality."""
    k_set = set(tower.k_elements)
    total = tower.size ** (m * m)
    if total > max_matrices:
        raise SizeLimit(f"{total} matrices exceed bound {max_matrices}")
    image = set()
    for flat in itertools.product(tower.k_elements, repeat=m * m):
        a = tuple(tuple(flat[i * m + j] for j in range(m)) for i in range(m))
        det = mat_det(tower, a)
        if det != 0:
            assert det in k_set
            image.add(det)
    return image


def kron_power(tower: FqTower, a: Matrix, t: int) -> Matrix:
    out = ((1,),)
    for _ in range(t):
        out = _kron(tower, out, a)
    return out


def _kron(tower: FqTower, a: Matrix, b: Matrix) -> Matrix:
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    return tuple(
        tuple(
            tower.mul(a[i // rb][j // cb], b[i % rb][j % cb]) for j in range(ca * cb)
        )
        for i in range(ra * rb)
    )


def apply_to_tensor(g: Matrix, tensor: TensorOnV) -> TensorOnV:
    """g(tau) = g^(x r) o tau o (g^(x l))^-1."""
    tower = tensor.tower
    g_inv = mat_inv(tower, g)
    if g_inv is None:
        raise ValueError("tensor transport requires an invertible matrix")
    left = kron_power(tower, g, tensor.r)
    right = kron_power(tower, g_inv, tensor.l)
    coeffs = mat_mul(tower, mat_mul(tower, left, tensor.coeffs), right)
    return TensorOnV(tower, tensor.dim, tensor.l, tensor.r, coeffs)


def classify_forms(
    tower: FqTower,
    tensor: TensorOnV,
    max_matrices: int = DEFAULT_MAX_MATRICES,
    max_stabilizer: int = 512,
) -> FormsReport:
    """Count the forms of a tensor two independent ways and match them.

    Direct route: Galois-invariant tensors in the GL_m(K)-orbit, partitioned
    into GL_m(k)-orbits. Cohomological route: classes of stabilizer-valued
    cocycles (their images in GL are all coboundaries; asserted). The
    transport map orbit -> class must be a bijection, else MatchFailure.
    """
    if not tensor.defined_over_base():
        raise ValueError("reference tensor must be defined over the base field")
    m = tensor.dim
    gl = enumerate_gl(tower, m, max_matrices)
    ident = mat_identity(tower, m)
    stabilizer = [g for g in gl if apply_to_tensor(g, tensor).coeffs == tensor.coeffs]
    if len(stabilizer) > max_stabilizer:
        raise SizeLimit(
            f"stabilizer of size {len(stabilizer)} exceeds bound {max_stabilizer}"
        )
    orbit: dict[Matrix, Matrix] = {}
    for g in gl:
        moved = apply_to_tensor(g, tensor).coeffs
        orbit.setdefault(moved, g)
    invariants = [
        t for t in orbit if mat_frob(tower, t, 1) == t
    ]
    k_rational = [g for g in gl if all(tower.in_base(x) for row in g for x in row)]
    remaining = set(invariants)
    direct_orbits: list[tuple[Matrix, ...]] = []
    while remaining:
        seed = min(remaining)
        seed_tensor = TensorOnV(tower, m, tensor.l, tensor.r, seed)
        members = set()
        for g in k_rational:
            moved = apply_to_tensor(g, seed_tensor).coeffs
            assert moved in orbit, "rational transport left the orbit"
            members.add(moved)
        assert members <= remaining, "rational orbits do not partition the invariants"
        direct_orbits.append(tuple(sorted(members)))
        remaining -= members

    # stabilizer as a finite group with the Frobenius action
    stab_index = {g: i for i, g in enumerate(stabilizer)}
    table = [
        [stab_index[mat_mul(tower, a, b)] for b in stabilizer] for a in stabilizer
    ]
    stab_group = make_group(table)
    gamma = cyclic_group(tower.n)
    action = []
    for j in range(tower.n):
        row = []
        for g in stabilizer:
            moved = mat_frob(tower, g, j)
            assert moved in stab_index, "stabilizer is not Frobenius-stable"
            row.append(stab_index[moved])
        action.append(row)
    stab_gamma = GammaGroup(gamma, stab_group, action)
    h1_stab = h1(stab_gamma)

    # Hilbert 90 on the ambient group: every class dies in GL
    for rep in h1_stab.classes:
        gen_matrix = stabilizer[rep.values[1 % gamma.order]] if gamma.order > 1 else ident
        trivializer = None
        for b in gl:
            b_inv = mat_inv(tower, b)
            if mat_mul(tower, b_inv, mat_frob(tower, b, 1)) == gen_matrix:
                trivializer = b
                break
        if gamma.order > 1 and trivializer is None:
            raise CounterexampleFound(
                "stabilizer cocycle is not a GL coboundary (Hilbert 90 violation)"
            )

    matching = []
    used: dict[int, int] = {}
    for oi, members in enumerate(direct_orbits):
        classes = set()
        for t in members:
            g = orbit[t]
            g_inv = mat_inv(tower, g)
            values = []
            for j in range(gamma.order):
                c = mat_mul(tower, g_inv, mat_frob(tower, g, j))
                assert c in stab_index, "transport cocycle left the stabilizer"
                values.append(stab_index[c])
            classes.add(h1_stab.class_of[tuple(values)])
        if len(classes) != 1:
            raise MatchFailure(f"one rational orbit hit several classes {sorted(classes)}")
        cls = classes.pop()
        if cls in used:
            raise MatchFailure(f"orbits {used[cls]} and {oi} both map to class {cls}")
        used[cls] = oi
        matching.append((oi, cls))
    if len(direct_orbits) != h1_stab.order:
        raise MatchFailure(
            f"direct count {len(direct_orbits)} != cohomological count {h1_stab.order}"
        )
    return FormsReport(
        tensor, len(stabilizer), tuple(direct_orbits), h1_stab, tuple(matching)
    )
