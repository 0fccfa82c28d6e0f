"""The matrix layer (one ``rref``, one batched GL/SL scan) against ``matrix_oracle``."""

import random

import numpy as np
import pytest

import matrix_oracle as oracle
from cocycle import etale, fields, galois
from cocycle.etale import classify_etale, realize_over_fq, trace_form_determinant
from cocycle.fields import (
    enumerate_gl,
    enumerate_sl,
    make_tower,
    mat_det,
    mat_inv,
    mat_kernel,
    mat_rank,
    mat_solve,
)
from cocycle.galois import (
    TensorOnV,
    classify_forms,
    det_image_on_rational_points,
    hilbert90_verify,
    sl_h1_verify,
)
from cocycle.groups import cyclic_group
from test_acceptance import HILBERT_CORPUS

#: (q, n, m) of the hilbert90 suite: HILBERT_CORPUS plus q = 5, m = 2.
SUITE_CORPUS = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2), (5, 2, 1), (5, 2, 2)]

#: (tower, m) beyond the suites: m = 3 with a trivial Galois group, F16 over
#: F4 and over F2, and a tower too large for dense tables.
EXTRA_SCANS = [((2, 1, 1), 3), ((3, 1, 1), 3), ((2, 2, 2), 1), ((2, 1, 4), 2), ((37, 1, 2), 1)]

SCANS = sorted(
    {((q, 1, n), m) for q, n, m in HILBERT_CORPUS + SUITE_CORPUS} | set(EXTRA_SCANS)
)


@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("spec,m", SCANS)
def test_scan_matches_oracle(spec, m, special):
    tower = make_tower(*spec)
    report = hilbert90_verify(tower, m, special)
    assert report == oracle.hilbert90_verify(tower, m, special)
    if tower.size ** (m * m) <= 10_000:
        # the one-matrix-at-a-time scan, also where the old dispatch gathered
        assert report == oracle._scan_scalar(tower, m, special, oracle.DEFAULT_MAX_MATRICES)


def test_tableless_tower_runs_the_same_scan():
    tower = make_tower(37, 1, 2)
    assert not tower._tables_built
    report = hilbert90_verify(tower, 1)
    assert (report.group_size, report.n_cocycles) == (1368, 38)


@pytest.mark.parametrize("spec,m", [((2, 1, 2), 2), ((3, 1, 2), 1), ((2, 2, 2), 1), ((5, 1, 2), 1)])
def test_sl_scan_on_a_tableless_copy(spec, m, monkeypatch):
    tabled = make_tower(*spec)
    monkeypatch.setattr(fields, "FIELD_TABLE_LIMIT", 0)
    bare = fields.FqTower(*spec)
    assert tabled._tables_built and not bare._tables_built
    assert bare.k_elements == tabled.k_elements
    got, want = sl_h1_verify(bare, m), sl_h1_verify(tabled, m)
    assert (got.group_size, got.n_cocycles, got.witness_sample) == (
        want.group_size,
        want.n_cocycles,
        want.witness_sample,
    )


@pytest.mark.parametrize("spec,m", [((2, 1, 2), 2), ((3, 1, 2), 2), ((2, 1, 1), 3), ((37, 1, 2), 1)])
def test_enumeration_order_and_det_image(spec, m):
    tower = make_tower(*spec)
    assert enumerate_gl(tower, m) == oracle.enumerate_gl(tower, m)
    assert enumerate_sl(tower, m) == oracle.enumerate_sl(tower, m)
    assert det_image_on_rational_points(tower, m) == oracle.det_image_on_rational_points(
        tower, m
    )


# -- rref against the eight eliminations ----------------------------------------

TOWERS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2)]

#: TOWERS with dense tables, and 3x1x2 once more without them (FIELD_TABLE_LIMIT
#: patched to 0), so that the digit-vector path of rref meets the oracles too.
RREF_TOWERS = [pytest.param(spec, True, id=f"spec{i}") for i, spec in enumerate(TOWERS)] + [
    pytest.param((3, 1, 2), False, id="tableless")
]


def _tower(spec, tables, monkeypatch):
    if tables:
        return make_tower(*spec)
    monkeypatch.setattr(fields, "FIELD_TABLE_LIMIT", 0)
    tower = fields.FqTower(*spec)
    assert not tower._tables_built
    return tower


def _random_rows(tower, rng, n_rows, n_cols, values=None):
    """Random rows, made rank-deficient half the time (last row = row0 * c + row1)."""
    values = values if values is not None else range(tower.size)
    rows = [[rng.choice(values) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and rng.random() < 0.5:
        c = rng.choice(values)
        rows[-1] = [tower.add(tower.mul(c, x), y) for x, y in zip(rows[0], rows[1])]
    return rows


def _dot(tower, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = tower.add(acc, tower.mul(a, b))
    return acc


@pytest.mark.parametrize("spec,tables", RREF_TOWERS)
def test_rank_kernel_solve(spec, tables, monkeypatch):
    tower = _tower(spec, tables, monkeypatch)
    rng = random.Random(sum(spec))
    k = list(tower.k_elements)
    for _ in range(60):
        n_rows, n_cols = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = _random_rows(tower, rng, n_rows, n_cols)
        assert mat_rank(tower, rows) == oracle._field_rank(tower, rows)
        assert mat_rank(tower, rows) == oracle._rank_over_base(tower, [tuple(r) for r in rows])
        base_rows = _random_rows(tower, rng, n_rows, n_cols, k)
        assert mat_kernel(tower, base_rows) == oracle._field_kernel(tower, base_rows)
        columns = [tuple(r[c] for r in base_rows) for c in range(n_cols)]
        x = [rng.choice(k) for _ in range(n_cols)]
        consistent = tuple(_dot(tower, row, x) for row in base_rows)
        for rhs in (consistent, tuple(rng.choice(k) for _ in range(n_rows))):
            assert mat_solve(tower, base_rows, rhs) == oracle._field_solve(tower, columns, rhs)


@pytest.mark.parametrize("spec,tables", RREF_TOWERS)
def test_det_and_inverse(spec, tables, monkeypatch):
    tower = _tower(spec, tables, monkeypatch)
    rng = random.Random(10 * sum(spec))
    for _ in range(60):
        m = rng.randrange(1, 5)
        a = tuple(tuple(r) for r in _random_rows(tower, rng, m, m))
        det = mat_det(tower, a)
        assert det == oracle.mat_det(tower, a) == oracle._det_over_base(tower, a)
        assert mat_inv(tower, a) == oracle.mat_inv(tower, a)


@pytest.mark.parametrize("spec,tables", RREF_TOWERS)
def test_fp_rank_through_tower_constants(spec, tables, monkeypatch):
    tower = _tower(spec, tables, monkeypatch)
    rng = random.Random(100 + sum(spec))
    for _ in range(30):
        rows = _random_rows(tower, rng, rng.randrange(1, 6), rng.randrange(1, 6), range(tower.p))
        assert mat_rank(tower, rows) == oracle._fp_rank(np.array(rows), tower.p)


# -- forms and etale realizations --------------------------------------------------

FORMS = [
    ((3, 1, 2), 2, 2, 0, ((1, 0, 0, 1),)),  # x^2 + y^2 over F3 split by F9
    ((2, 1, 2), 2, 2, 0, ((0, 0, 0, 0),)),  # zero tensor over F4
    ((3, 1, 2), 1, 2, 0, ((1,),)),  # x^2 over F3
    ((2, 1, 2), 2, 2, 0, ((0, 1, 1, 0),)),  # xy over F2
    ((3, 1, 2), 2, 2, 0, ((2, 0, 0, 1),)),  # 2x^2 + y^2 over F3
    ((2, 1, 2), 2, 1, 1, ((1, 0), (0, 1))),  # identity endomorphism over F2
    ((2, 1, 2), 2, 0, 1, ((1,), (0,))),  # a vector over F2
    ((2, 1, 3), 1, 2, 0, ((1,),)),  # x^2 over F2 split by F8
    ((3, 1, 2), 2, 1, 1, ((1, 0), (0, 0))),  # an idempotent endomorphism over F3
]


@pytest.mark.parametrize("spec,dim,l,r,coeffs", FORMS)
def test_forms_match_oracle(spec, dim, l, r, coeffs):
    tower = make_tower(*spec)
    tensor = TensorOnV.make(tower, dim, l, r, coeffs)
    got, want = classify_forms(tower, tensor), oracle.classify_forms(tower, tensor)
    assert got.stabilizer_size == want.stabilizer_size
    assert got.direct_orbits == want.direct_orbits
    assert got.matching == want.matching
    assert [c.values for c in got.h1_stabilizer.classes] == [
        c.values for c in want.h1_stabilizer.classes
    ]


def _oracle_solve(tower, rows, rhs):
    columns = [tuple(row[c] for row in rows) for c in range(len(rows[0]))]
    return oracle._field_solve(tower, columns, tuple(rhs))


@pytest.mark.parametrize("spec,m", [((3, 1, 2), 2), ((3, 1, 2), 3), ((2, 1, 3), 3), ((5, 1, 2), 4)])
def test_etale_realization_matches_oracle(spec, m, monkeypatch):
    tower = make_tower(*spec)
    classes = classify_etale(cyclic_group(tower.n), m)
    got = [realize_over_fq(tower, cls) for cls in classes]
    traces = [trace_form_determinant(a) for a in got] if tower.p != 2 else None
    monkeypatch.setattr(galois, "mat_kernel", oracle._field_kernel)
    monkeypatch.setattr(galois, "mat_rank", oracle._field_rank)
    monkeypatch.setattr(etale, "mat_solve", _oracle_solve)
    monkeypatch.setattr(etale, "mat_rank", oracle._rank_over_base)
    monkeypatch.setattr(etale, "mat_det", oracle._det_over_base)
    want = [realize_over_fq(tower, cls) for cls in classes]
    assert got == want
    if traces is not None:
        assert traces == [trace_form_determinant(a) for a in want]
