import tracemalloc

import pytest

from cocycle.errors import SizeLimit
from cocycle.exactness import h2_central, presentation_of_subgroup
from cocycle.serialize import (
    _element_from_digits,
    dumps,
    h1_payload,
    load_action,
    load_group,
    load_tensor,
    to_tsv,
)
from cocycle.cli import etale_payload, quad_payload
from cocycle.cohomology import h1
from cocycle.fields import make_tower
from cocycle.groups import Subgroup, cyclic_group


class TestLoadGroup:
    def test_family(self):
        g = load_group({"family": "symmetric", "n": 3})
        assert g.order == 6

    def test_table_with_labels(self):
        g = load_group({"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "s"]})
        assert g.label(1) == "s"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            load_group({"family": "sporadic", "n": 1})

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            load_group({"order": 3, "table": [[0, 1], [1, 0]]})

    def test_max_order(self):
        with pytest.raises(SizeLimit):
            load_group({"family": "symmetric", "n": 4}, max_order=10)

    @pytest.mark.parametrize(
        "family,n", [("cyclic", 3000), ("dihedral", 1500), ("symmetric", 7), ("symmetric", 10**6)]
    )
    def test_max_order_checked_before_building(self, family, n):
        # building Z/3000 alone allocates its 3000^2 table and 137 MiB at peak
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimit):
                load_group({"family": family, "n": n}, max_order=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLoadAction:
    def test_h1_roundtrip(self):
        parent = load_action(
            {
                "gamma": {"family": "cyclic", "n": 2},
                "base": {"family": "cyclic", "n": 4},
                "action": [[0, 1, 2, 3], [0, 3, 2, 1]],
            }
        )
        payload = h1_payload(h1(parent))
        assert payload["classes"] == 2
        assert payload["representatives"][payload["distinguished"]] == [0, 0]

    def test_missing_key(self):
        with pytest.raises(ValueError):
            load_action({"gamma": {"family": "cyclic", "n": 2}, "action": [[0]]})


class TestExtensionSchema:
    def test_h2_flow(self):
        parent = load_action(
            {
                "gamma": {"family": "cyclic", "n": 2},
                "base": {"family": "cyclic", "n": 4},
                "action": [[0, 1, 2, 3], [0, 1, 2, 3]],
            }
        )
        central = Subgroup.from_members(parent.base, [0, 2])
        h2 = h2_central(parent.gamma, presentation_of_subgroup(parent, central).presentation)
        assert h2.invariant_factors == (2,)
        assert h2.order == 2
        for gen in h2.generators:
            assert len(gen)  # nonempty normalized cochain


class TestTensorSchema:
    def test_roundtrip_digits(self):
        tower = make_tower(3, 1, 2)
        for value in range(tower.size):
            digits = [value % 3, value // 3]  # constant digit first
            assert _element_from_digits(tower, digits) == value

    def test_load(self):
        tower, tensor = load_tensor(
            {
                "p": 3,
                "d": 1,
                "n": 2,
                "dim": 2,
                "type": [2, 0],
                "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]],
            }
        )
        assert tensor.defined_over_base()
        assert tensor.coeffs == ((1, 0, 0, 1),)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            load_tensor(
                {"p": 3, "d": 1, "n": 2, "dim": 2, "type": [2, 0], "coeffs": [[1, 0]]}
            )


class TestPayloads:
    def test_dumps_sorted_and_newline(self):
        text = dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_tsv_scalar_table(self):
        text = to_tsv({"x": 1, "y": [1, 2]})
        assert "x\t1" in text and "y\t[1, 2]" in text

    def test_etale_payload_rows(self):
        payload = etale_payload(cyclic_group(2), 2, None)
        assert {tuple(r["factor_structure"]) for r in payload["rows"]} == {(1, 1), (2,)}
        tsv = to_tsv(payload)
        assert tsv.count("\n") == 3  # header + two rows

    def test_quad_payload(self):
        payload = quad_payload(1)
        assert payload["matched"] and payload["h1_order"] == 2
