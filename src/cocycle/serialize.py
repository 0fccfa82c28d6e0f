"""JSON schemas for groups, actions, tensors, and result payloads.

Group references are either an explicit table object
``{"order": n, "table": [[...]], "labels": [...]?}`` or a named family
``{"family": "cyclic" | "symmetric" | "dihedral", "n": k}``. Action files
wrap two group references and the action array; tensor files carry field
parameters and coefficients as base-p digit vectors. All writers emit
sorted-key JSON so identical inputs produce byte-identical output. Beyond
``groups``, each loader imports the layer it reads when it is called, so the
CLI loads only what a command uses.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from .errors import SizeLimit
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    make_group,
    symmetric_group,
)

if TYPE_CHECKING:
    from .cohomology import GammaGroup, H1Set
    from .fields import FqTower
    from .galois import TensorOnV

#: family -> (constructor of n, order of the group it builds, or a lower
#: bound past every table that fits in memory: S_21 and up count as 21!)
FAMILIES = {
    "cyclic": (cyclic_group, lambda n: n),
    "symmetric": (symmetric_group, lambda n: math.factorial(min(max(n, 0), 21))),
    "dihedral": (dihedral_group, lambda n: 2 * n),
}


def check_family_order(family: str, n: int, max_order: int | None) -> None:
    """Refuse a family group above ``max_order`` before any table is built."""
    if max_order is not None and FAMILIES[family][1](n) > max_order:
        raise SizeLimit(f"{family} group with n={n} exceeds order bound {max_order}")


def load_group(obj: Any, max_order: int | None = None) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise ValueError("group reference must be a JSON object")
    if "family" in obj:
        family = obj["family"]
        if not isinstance(family, str) or family not in FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        if "n" not in obj:
            raise ValueError(f"group family {family!r} is missing 'n'")
        n = _json_int(obj["n"], "group family 'n'")
        check_family_order(family, n, max_order)
        group = FAMILIES[family][0](n)
    else:
        table = obj.get("table")
        if table is None:
            raise ValueError("group reference needs a 'table' or a 'family'")
        declared = obj.get("order")
        if declared is not None and _json_int(declared, "group 'order'") != len(table):
            raise ValueError("declared order does not match the table size")
        labels = obj.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError(f"group 'labels' must be a list, got {labels!r}")
        group = make_group(table, tuple(labels) if labels is not None else None)
    if max_order is not None and group.order > max_order:
        raise SizeLimit(f"group order {group.order} exceeds bound {max_order}")
    return group


def load_action(obj: Any, max_order: int | None = None) -> GammaGroup:
    from .cohomology import GammaGroup

    if not isinstance(obj, dict):
        raise ValueError("action file must be a JSON object")
    for key in ("gamma", "base", "action"):
        if key not in obj:
            raise ValueError(f"action file is missing {key!r}")
    gamma = load_group(obj["gamma"], max_order)
    base = load_group(obj["base"], max_order)
    return GammaGroup(gamma, base, obj["action"])


def load_tensor(obj: Any, max_field: int | None = None) -> tuple[FqTower, TensorOnV]:
    from .fields import make_tower
    from .galois import TensorOnV

    if not isinstance(obj, dict):
        raise ValueError("tensor file must be a JSON object")
    for key in ("p", "d", "n", "dim", "type", "coeffs"):
        if key not in obj:
            raise ValueError(f"tensor file is missing {key!r}")
    if not isinstance(obj["type"], list) or len(obj["type"]) != 2:
        raise ValueError(f"tensor 'type' must be a list of two integers, got {obj['type']!r}")
    if not isinstance(obj["coeffs"], list):
        raise ValueError(f"tensor 'coeffs' must be a list of digit vectors, got {obj['coeffs']!r}")
    kwargs = {} if max_field is None else {"max_field": max_field}
    p, d, n = (_json_int(obj[key], f"tensor {key!r}") for key in ("p", "d", "n"))
    tower = make_tower(p, d, n, **kwargs)
    l, r = (_json_int(x, "tensor 'type' entry") for x in obj["type"])
    if l < 0 or r < 0:
        raise ValueError(f"tensor 'type' entries must be nonnegative, got {[l, r]}")
    dim = _json_int(obj["dim"], "tensor 'dim'")
    flat = [_element_from_digits(tower, vec) for vec in obj["coeffs"]]
    if len(flat) != dim**r * dim**l:
        raise ValueError(
            f"expected {dim ** r * dim ** l} coefficients, got {len(flat)}"
        )
    width = dim**l
    coeffs = tuple(
        tuple(flat[row * width : (row + 1) * width]) for row in range(dim**r)
    )
    return tower, TensorOnV.make(tower, dim, l, r, coeffs)


def _json_int(value: Any, field: str) -> int:
    """``value`` if it is a JSON integer, not a float or a boolean, else a
    ValueError naming the field: ``int()`` would truncate 2.7 or read true as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _element_from_digits(tower: FqTower, digits: Any) -> int:
    if not isinstance(digits, list) or len(digits) != tower.degree:
        raise ValueError(
            f"field elements are digit vectors of length {tower.degree}"
        )
    value = 0
    for d in reversed(digits):
        if not 0 <= _json_int(d, "coefficient digit") < tower.p:
            raise ValueError(f"digit {d} out of range for characteristic {tower.p}")
        value = value * tower.p + d
    return value


# ---------------------------------------------------------------------------
# result payloads


def h1_payload(h1_set: H1Set) -> dict:
    return {
        "classes": h1_set.order,
        "cocycles": h1_set.n_cocycles,
        "representatives": h1_set.classes.rows.tolist(),
        "distinguished": h1_set.distinguished,
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def to_tsv(payload: dict) -> str:
    """Flat TSV mirror: 'rows' tables get a header, scalars get key/value lines."""
    rows = payload.get("rows")
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        keys = sorted({k for r in rows for k in r})
        lines = ["\t".join(keys)]
        for r in rows:
            lines.append("\t".join(_tsv_cell(r.get(k)) for k in keys))
        return "\n".join(lines) + "\n"
    lines = []
    for key in sorted(payload):
        lines.append(f"{key}\t{_tsv_cell(payload[key])}")
    return "\n".join(lines) + "\n"


def _tsv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)
