"""Tower arithmetic against ``field_oracle``, a pure-Python polynomial product.

Tabled towers: the modulus, the Frobenius matrix and every entry of the five
tables. Towers too large for tables: sampled array operations, which then run
the digit-array arithmetic itself rather than gathers.
"""

import tracemalloc

import numpy as np
import pytest

import field_oracle as oracle
from cocycle import fields
from cocycle.errors import SizeLimit
from cocycle.fields import make_tower

#: Every tabled tower the test suite builds, 7x1x2 of the CLI corpus and the
#: largest tabled tower, 2^10.
TABLED = [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2), (2, 1, 10),
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 4),
    (5, 1, 1), (5, 1, 2), (5, 1, 3), (5, 1, 4),
    (7, 1, 2), (31, 1, 2),
]  # fmt: skip

UNTABLED = [(37, 1, 2), (2, 1, 11)]


@pytest.mark.parametrize("spec", TABLED)
def test_tables_match_the_reference(spec):
    tower, ref = make_tower(*spec), oracle.RefField(*spec)
    assert tower._tables_built
    assert tower.modulus == ref.modulus
    assert np.array_equal(tower.frobenius_matrix, ref.frobenius_matrix())
    want = ref.tables()
    for name in ("add", "neg", "mul", "inv", "frob"):
        assert np.array_equal(getattr(tower, f"{name}_table"), want[name]), name


@pytest.mark.parametrize("spec", [s for s in TABLED if s[0] ** (s[1] * s[2]) <= 125])
def test_small_tables_entry_by_entry(spec):
    # the direct reference product, without the discrete logarithms
    tower, ref = make_tower(*spec), oracle.RefField(*spec)
    every = range(tower.size)
    assert tower.mul_table.tolist() == [[ref.mul(a, b) for b in every] for a in every]
    assert tower.frob_table.tolist() == [ref.frob(a) for a in every]


@pytest.mark.parametrize("spec", UNTABLED)
def test_untabled_array_operations_match_the_reference(spec):
    tower, ref = make_tower(*spec), oracle.RefField(*spec)
    assert not tower._tables_built
    assert tower.modulus == ref.modulus
    assert np.array_equal(tower.frobenius_matrix, ref.frobenius_matrix())
    rng = np.random.default_rng(sum(spec))
    a, b = rng.integers(0, tower.size, (2, 200))
    a[:3], b[:3] = [0, 1, tower.size - 1], [0, 0, 1]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert tower.vmul(a, b).tolist() == [ref.mul(x, y) for x, y in pairs]
    assert tower.vadd(a, b).tolist() == [ref.add(x, y) for x, y in pairs]
    assert tower.vneg(a).tolist() == [ref.neg(x) for x in a.tolist()]
    units = a[a != 0]
    assert tower.vinv(units).tolist() == [ref.inv(x) for x in units.tolist()]
    for j in range(-1, tower.n + 1):
        assert tower.vfrob(a, j).tolist() == [ref.frob(x, j) for x in a.tolist()]
    for e in (0, 1, 2, tower.size - 1, tower.size, 3 * tower.size + 5):
        assert tower.vpow(a, e).tolist() == [ref.pow(x, e) for x in a.tolist()]
    # one table-shaped broadcast: a column against a row
    grid = tower.vmul(a[:20, None], b[None, :20])
    assert grid.tolist() == [[ref.mul(x, y) for y in b[:20].tolist()] for x in a[:20].tolist()]


def test_scalar_ops_are_the_array_ops_on_one_element():
    tower = make_tower(37, 1, 2)
    ref = oracle.RefField(37, 1, 2)
    for x, y in [(0, 0), (5, 700), (1368, 1), (36, 37)]:
        assert tower.mul(x, y) == ref.mul(x, y)
        assert tower.sub(x, y) == ref.add(x, ref.neg(y))
        assert tower.frob(x, 3) == ref.frob(x, 3)
        assert tower.pow(x, 0) == 1
    assert tower.inv(700) == ref.inv(700)
    assert tower.pow(700, -2) == ref.pow(ref.inv(700), 2)
    with pytest.raises(ZeroDivisionError):
        tower.inv(0)


def test_digit_arrays_are_sized_before_allocation(monkeypatch):
    tower = fields.FqTower(2, 1, 16)  # uncached: k_elements not yet found
    assert not tower._tables_built
    monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "4")
    # 65,536 elements x 3 x 16 digits x 8 bytes = 24 MiB of digit temporaries
    with pytest.raises(SizeLimit, match="field digit arrays"):
        tower.k_elements
    monkeypatch.delenv("COCYCLE_MAX_MEM_MB")
    assert len(tower.k_elements) == 2


def test_a_product_stays_within_its_digit_count(budget_requests):
    # a 512 x 512 broadcast over 2x1x11 holds 21 product digits and an 11-digit term
    # per entry; a count of 2 x 11 digits fell a third short of the traced peak
    tower = fields.FqTower(2, 1, 11)
    assert not tower._tables_built
    asked = budget_requests(fields)
    a, b = np.arange(512)[:, None], np.arange(512, 1024)[None, :]
    tracemalloc.start()
    try:
        tower.vmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= asked["field digit arrays"]
