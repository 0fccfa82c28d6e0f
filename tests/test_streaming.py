"""The exhaustive checks stream in fixed chunks: same answers, bounded memory.

``fields.general_linear`` yields GL_m/SL_m and ``exactness.h2_brute_force_order``
walks the raw cochains in the chunks of ``groups.product_chunks``, each of
``ENGINE_CHUNK >> 4`` entries (16 times the row width);
``groups.coboundary_classes`` moves its rows ``ENGINE_CHUNK`` entries at a
time. Shrinking ``groups.ENGINE_CHUNK``, the one constant that sizes them,
must leave every report unchanged (witness samples included), the streamed H2
oracle must agree with the dense one in ``tests/h2_oracle.py``, and the
traced peak of each check must stay under a fixed bound.
"""

import re
import tracemalloc

import numpy as np
import pytest

import h2_oracle
import matrix_oracle as oracle
from cocycle import cyclic_group, exactness, fields, galois, groups, trivial_module
from cocycle.cohomology import conjugation_action, h1, inversion_action, trivial_action
from cocycle.errors import CounterexampleFound, SizeLimit
from cocycle.fields import batch_key, general_linear, make_tower
from cocycle.galois import (
    TensorOnV,
    classify_forms,
    det_image_on_rational_points,
    hilbert90_verify,
    sl_h1_verify,
)
from cocycle.groups import (
    dihedral_group,
    direct_product,
    identity_hom,
    quaternion_group,
    symmetric_group,
)
from test_h2 import CASES, v4
from test_matrix import FORMS

ONE_CHUNK = 1 << 40


def _chunk_constant(entries_per_chunk: int) -> int:
    """The ENGINE_CHUNK value whose streams hold entries_per_chunk entries."""
    return entries_per_chunk << 4


def _seven_chunks(monkeypatch, tower, m):
    """Cut the |K|^(m^2) matrices into about seven chunks, seams inside the group."""
    step = tower.size ** (m * m) // 7 + 3
    monkeypatch.setattr(groups, "ENGINE_CHUNK", _chunk_constant(step * m * m))


# (tower, m, special): GL2(F9), SL2(F25), GL3(F4)
SEAM_SCANS = [((3, 1, 2), 2, False), ((5, 1, 2), 2, True), ((2, 1, 2), 3, False)]


@pytest.mark.parametrize("spec,m,special", SEAM_SCANS)
def test_scan_is_the_same_across_chunk_seams(spec, m, special, monkeypatch):
    tower = make_tower(*spec)
    monkeypatch.setattr(groups, "ENGINE_CHUNK", ONE_CHUNK)
    assert len(list(general_linear(tower, m, special))) == 1
    whole = hilbert90_verify(tower, m, special)
    _seven_chunks(monkeypatch, tower, m)
    chunks = [keys for _, _, keys in general_linear(tower, m, special)]
    assert sum(len(keys) > 0 for keys in chunks) >= 5
    streamed = hilbert90_verify(tower, m, special)
    assert streamed == whole
    assert streamed.n_coboundaries == streamed.n_cocycles
    if m == 2:
        # the one-matrix-at-a-time oracle takes tens of seconds on GL3(F4)
        assert streamed == oracle.hilbert90_verify(tower, m, special)
    else:
        assert (streamed.group_size, streamed.n_cocycles) == (181_440, 1_080)


@pytest.mark.parametrize("spec,m", [((2, 1, 2), 2), ((3, 1, 2), 2), ((2, 1, 1), 3)])
def test_stream_order_keys_and_det_image_across_seams(spec, m, monkeypatch):
    tower = make_tower(*spec)
    _seven_chunks(monkeypatch, tower, m)
    chunks = list(general_linear(tower, m))
    assert len(chunks) >= 5
    for mats, det, keys in chunks:
        assert np.array_equal(keys, batch_key(tower, mats))
        assert np.array_equal(det, fields.batch_det(tower, mats))
    keys = np.concatenate([keys for _, _, keys in chunks])
    assert np.all(np.diff(keys) > 0)
    assert fields.enumerate_gl(tower, m) == oracle.enumerate_gl(tower, m)
    assert fields.enumerate_sl(tower, m) == oracle.enumerate_sl(tower, m)
    assert det_image_on_rational_points(tower, m) == oracle.det_image_on_rational_points(
        tower, m
    )
    report = sl_h1_verify(tower, m)
    assert report == oracle.hilbert90_verify(tower, m, special=True)


def test_size_limit_fires_at_the_call(monkeypatch):
    tower = make_tower(2, 1, 2)
    monkeypatch.setattr(fields, "DEFAULT_MAX_MATRICES", 4**9 - 1)
    with pytest.raises(SizeLimit):
        general_linear(tower, 3)  # no iteration needed
    with pytest.raises(SizeLimit):
        det_image_on_rational_points(tower, 3)
    monkeypatch.setattr(fields, "DEFAULT_MAX_MATRICES", 4**9)
    assert next(general_linear(tower, 3))[0].shape[:2] == (3, 3)


# -- the brute-force H2 oracle -------------------------------------------------


def _within_limit(gamma, pres):
    return pres.module_order ** (gamma.order**2) <= exactness.MAX_ORACLE_COCHAINS


ORACLE_CASES = [case for case in CASES if _within_limit(case[1], case[2])]


@pytest.mark.parametrize("name,gamma,pres", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_streamed_oracle_matches_dense(name, gamma, pres):
    assert exactness.h2_brute_force_order(gamma, pres) == h2_oracle.h2_brute_force_order(
        gamma, pres
    )


def test_oracle_corpus_covers_the_required_modules():
    names = {name for name, _, _ in ORACLE_CASES}
    assert {"H2(Z/4, Z/2)", "H2(V4, Z/2)", "H2(Z/2, Z/4 inverted)"} <= names
    assert {f"H2(Z/{n}, Z/{m})" for n in (1, 2) for m in (2, 3, 4, 6)} <= names
    assert "H2(Z/2, Z/2 x Z/4)" in names


@pytest.mark.parametrize(
    "gamma,factors",
    [(cyclic_group(4), (2,)), (v4(), (2,)), (cyclic_group(3), (3,)), (cyclic_group(2), (2, 4))],
    ids=["Z/4, Z/2", "V4, Z/2", "Z/3, Z/3", "Z/2, Z/2 x Z/4"],
)
def test_oracle_is_the_same_across_chunk_seams(gamma, factors, monkeypatch):
    pres = trivial_module(gamma, factors)
    monkeypatch.setattr(groups, "ENGINE_CHUNK", ONE_CHUNK)
    whole = exactness.h2_brute_force_order(gamma, pres)
    chunks = []  # (what, rows) of every chunk of either pass
    stream = exactness.product_chunks

    def counted(radices, width, what):
        for ranks, digits in stream(radices, width, what):
            chunks.append((what, len(digits)))
            yield ranks, digits

    monkeypatch.setattr(exactness, "product_chunks", counted)
    n_cochains = pres.module_order ** (gamma.order**2)
    width = gamma.order**3 * pres.rank  # d2 defects per 2-cochain
    monkeypatch.setattr(groups, "ENGINE_CHUNK", _chunk_constant((n_cochains // 7 + 3) * width))
    assert exactness.h2_brute_force_order(gamma, pres) == whole
    assert whole == h2_oracle.h2_brute_force_order(gamma, pres)
    cocycle_pass = [rows for what, rows in chunks if what == "raw 2-cochain chunk"]
    assert len(cocycle_pass) >= 5 and sum(cocycle_pass) == n_cochains


# -- the coboundary partition ----------------------------------------------------

def _inner(group):
    return conjugation_action(group, group, identity_hom(group))


PARTITIONS = {
    "inner S3": lambda: _inner(symmetric_group(3)),
    "Z/4 inverting Z/160": lambda: inversion_action(cyclic_group(4), cyclic_group(160)),
    "D4 inverting Z/4 x Z/2": lambda: inversion_action(
        dihedral_group(4), direct_product(cyclic_group(4), cyclic_group(2))
    ),
    "inner Q8": lambda: _inner(quaternion_group()),
    "D4 on the trivial group": lambda: trivial_action(dihedral_group(4), cyclic_group(1)),
}


@pytest.mark.parametrize("build", PARTITIONS.values(), ids=list(PARTITIONS))
def test_classes_are_the_same_one_row_per_chunk(build, monkeypatch):
    parent = build()
    whole = h1(parent)
    moves = len(parent.gamma.short_generators()) * len(parent.base.generators())
    monkeypatch.setattr(groups, "ENGINE_CHUNK", max(moves, 1))  # one row's moves
    chunks = []  # coboundary_classes looks up each chunk's moves once
    lookup_sorted = groups.lookup_sorted

    def counted(sorted_keys, keys):
        chunks.append(len(keys))
        return lookup_sorted(sorted_keys, keys)

    monkeypatch.setattr(groups, "lookup_sorted", counted)
    streamed = h1(parent)
    assert len(chunks) == whole.n_cocycles
    assert [c.values for c in streamed.classes] == [c.values for c in whole.classes]
    assert streamed.class_of == whole.class_of
    assert streamed.distinguished == whole.distinguished


# -- memory ----------------------------------------------------------------------


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_oracle_peak_memory():
    gamma = cyclic_group(4)
    pres = trivial_module(gamma, (2,))
    assert _traced_peak_mib(lambda: exactness.h2_brute_force_order(gamma, pres)) <= 8


@pytest.mark.parametrize("spec,m,bound_mib", [((5, 1, 2), 2, 28), ((2, 1, 2), 3, 16)])
def test_scan_peak_memory(spec, m, bound_mib):
    tower = make_tower(*spec)
    assert _traced_peak_mib(lambda: hilbert90_verify(tower, m)) <= bound_mib


# -- the forms stream and the coboundary table ------------------------------------


def _counted_chunks(monkeypatch):
    """Count the GL chunks that galois draws."""
    chunks = []

    def counted(tower, m, special=False):
        for chunk in general_linear(tower, m, special):
            chunks.append(len(chunk[2]))
            yield chunk

    monkeypatch.setattr(galois, "general_linear", counted)
    return chunks


@pytest.mark.parametrize("spec,dim,l,r,coeffs", FORMS)
def test_forms_are_the_same_across_chunk_seams(spec, dim, l, r, coeffs, monkeypatch):
    tower = make_tower(*spec)
    tensor = TensorOnV.make(tower, dim, l, r, coeffs)
    monkeypatch.setattr(groups, "ENGINE_CHUNK", ONE_CHUNK)
    whole = classify_forms(tower, tensor)
    total = tower.size ** (dim * dim)
    monkeypatch.setattr(groups, "ENGINE_CHUNK", _chunk_constant(max(1, total // 7) * dim * dim))
    chunks = _counted_chunks(monkeypatch)
    streamed = classify_forms(tower, tensor)
    assert sum(n > 0 for n in chunks) >= 5
    want = oracle.classify_forms(tower, tensor)
    for got in (whole, streamed):
        assert got.stabilizer_size == want.stabilizer_size
        assert got.direct_orbits == want.direct_orbits
        assert got.matching == want.matching
        assert [c.values for c in got.h1_stabilizer.classes] == [
            c.values for c in want.h1_stabilizer.classes
        ]


def test_oversized_stabilizer_reports_its_full_size(monkeypatch):
    tower = make_tower(2, 1, 4)
    zero = TensorOnV.make(tower, 2, 2, 0, ((0, 0, 0, 0),))
    _seven_chunks(monkeypatch, tower, 2)
    chunks = _counted_chunks(monkeypatch)
    # a 61200^2 uint16 table: all of GL_2(F_16), counted after the last chunk
    with pytest.raises(SizeLimit, match=r"^group multiplication table needs 7490880000 bytes"):
        classify_forms(tower, zero)
    assert len(chunks) >= 5


def _patched_coboundary_keys(monkeypatch, change):
    """Patch galois._coboundary_keys to pass each chunk's keys through change."""
    coboundary_keys = galois._coboundary_keys
    monkeypatch.setattr(
        galois, "_coboundary_keys", lambda *args: change(coboundary_keys(*args))
    )


def test_a_dropped_coboundary_is_a_counterexample(monkeypatch):
    tower = make_tower(3, 1, 2)
    report = hilbert90_verify(tower, 2)
    identity = ((1, 0), (0, 1))
    other = next(a for a, _ in report.witness_sample if a != identity)
    key_i, key_o = (int(batch_key(tower, np.array(a)[:, :, None])[0]) for a in (identity, other))
    # no B reaches the coboundary I any more: each is sent to another one
    _patched_coboundary_keys(monkeypatch, lambda keys: np.where(keys == key_i, key_o, keys))
    message = f"norm-one matrix {identity} over {tower!r} is not a coboundary"
    with pytest.raises(CounterexampleFound, match=f"^{re.escape(message)}$"):
        hilbert90_verify(tower, 2)
    # the trivial class of the stabilizer has the value I at frob: forms read the same table
    x2y2 = TensorOnV.make(tower, 2, 2, 0, ((1, 0, 0, 1),))
    with pytest.raises(CounterexampleFound, match=r"\(Hilbert 90 violation\)$"):
        classify_forms(tower, x2y2)


def test_an_extra_coboundary_fails_the_count(monkeypatch):
    tower = make_tower(3, 1, 2)
    x = next(a for a in range(tower.size) if tower.norm_to_base(a) not in (0, 1))
    not_norm_one = int(batch_key(tower, np.array([[[x], [0]], [[0], [1]]]))[0])
    calls = []

    def add_one(keys):
        calls.append(len(keys))
        if len(calls) == 1:  # the first B's coboundary has 47 more witnesses in GL_2(F_3) B
            keys = keys.copy()
            keys[0] = not_norm_one
        return keys

    _patched_coboundary_keys(monkeypatch, add_one)
    with pytest.raises(CounterexampleFound, match=r"non-cocycle \(norm condition bug\)$"):
        hilbert90_verify(tower, 2)


def test_forms_peak_memory():
    tower = make_tower(5, 1, 2)
    tensor = TensorOnV.make(tower, 2, 2, 0, ((1, 0, 0, 1),))
    assert _traced_peak_mib(lambda: classify_forms(tower, tensor)) <= 12


def test_largest_scan_peak_memory():
    tower = make_tower(2, 1, 5)  # GL_2(F_32): all DEFAULT_MAX_MATRICES keys scanned
    assert _traced_peak_mib(lambda: hilbert90_verify(tower, 2)) <= 20
