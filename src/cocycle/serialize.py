"""JSON schemas for groups, actions, tensors, and result payloads.

Group references are either an explicit table object
``{"order": n, "table": [[...]], "labels": [...]?}`` or a named family
``{"family": "cyclic" | "symmetric" | "dihedral", "n": k}``. Action files
wrap two group references and the action array; tensor files carry field
parameters and coefficients as base-p digit vectors. All writers emit
sorted-key JSON so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .cohomology import GammaGroup, H1Set
from .errors import SizeLimit
from .etale import (
    EtaleClass,
    classify_etale,
    discriminant_is_trivial,
    factor_structure,
    is_cyclic_field,
    is_field,
    is_galois,
    realize_over_fq,
)
from .fields import FqTower, make_tower
from .galois import TensorOnV
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    make_group,
    symmetric_group,
)
from .quad import make_ring, verify_units_iso

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
        if family not in FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        n = int(obj["n"])
        check_family_order(family, n, max_order)
        group = FAMILIES[family][0](n)
    else:
        table = obj.get("table")
        if table is None:
            raise ValueError("group reference needs a 'table' or a 'family'")
        declared = obj.get("order")
        if declared is not None and int(declared) != len(table):
            raise ValueError("declared order does not match the table size")
        labels = obj.get("labels")
        group = make_group(table, tuple(labels) if labels is not None else None)
    if max_order is not None and group.order > max_order:
        raise SizeLimit(f"group order {group.order} exceeds bound {max_order}")
    return group


def load_action(obj: Any, max_order: int | None = None) -> GammaGroup:
    if not isinstance(obj, dict):
        raise ValueError("action file must be a JSON object")
    for key in ("gamma", "base", "action"):
        if key not in obj:
            raise ValueError(f"action file is missing {key!r}")
    gamma = load_group(obj["gamma"], max_order)
    base = load_group(obj["base"], max_order)
    return GammaGroup(gamma, base, obj["action"])


def load_tensor(obj: Any, max_field: int | None = None) -> tuple[FqTower, TensorOnV]:
    for key in ("p", "d", "n", "dim", "type", "coeffs"):
        if key not in obj:
            raise ValueError(f"tensor file is missing {key!r}")
    kwargs = {} if max_field is None else {"max_field": max_field}
    tower = make_tower(int(obj["p"]), int(obj["d"]), int(obj["n"]), **kwargs)
    l, r = (int(x) for x in obj["type"])
    dim = int(obj["dim"])
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


def _element_from_digits(tower: FqTower, digits: Any) -> int:
    if not isinstance(digits, list) or len(digits) != tower.degree:
        raise ValueError(
            f"field elements are digit vectors of length {tower.degree}"
        )
    value = 0
    for d in reversed(digits):
        d = int(d)
        if d < 0 or d >= tower.p:
            raise ValueError(f"digit {d} out of range for characteristic {tower.p}")
        value = value * tower.p + d
    return value


# ---------------------------------------------------------------------------
# result payloads


def h1_payload(h1_set: H1Set) -> dict:
    return {
        "classes": h1_set.order,
        "cocycles": h1_set.n_cocycles,
        "representatives": [list(c.values) for c in h1_set.classes],
        "distinguished": h1_set.distinguished,
    }


def etale_row(cls: EtaleClass, tower: FqTower | None) -> dict:
    gens = cls.gamma.generators()
    sym = cls.psi.target
    row = {
        "psi": {str(g): list(sym.perms[cls.psi(g)]) for g in gens},
        "orbits": [list(o) for o in cls.orbits],
        "factor_structure": list(factor_structure(cls)),
        "is_field": is_field(cls),
        "is_cyclic": is_cyclic_field(cls),
        "discriminant_trivial": discriminant_is_trivial(cls),
    }
    if is_field(cls):
        galois, _ = is_galois(cls)
        row["is_galois"] = galois
    else:
        row["is_galois"] = False
    if tower is not None:
        algebra = realize_over_fq(tower, cls)
        row["realized_factor_degrees"] = list(algebra.factor_degrees)
    return row


def etale_payload(gamma: FiniteGroup, m: int, tower: FqTower | None) -> dict:
    rows = [etale_row(cls, tower) for cls in classify_etale(gamma, m)]
    return {"dimension": m, "gamma_order": gamma.order, "rows": rows}


def quad_payload(d: int) -> dict:
    ring = make_ring(d)
    iso = verify_units_iso(ring)
    return {
        "d": d,
        "discriminant": ring.discriminant,
        "ramified": [
            {"p": p, "ideal": [ideal.a, ideal.b, ideal.c]} for p, ideal in iso.quotient.ramified
        ],
        "quotient_order": iso.quotient.order,
        "h1_order": iso.h1.order,
        "matched": iso.matched,
        "witnesses": [
            {"subset": list(subset), "generator": list(gen), "class": cls}
            for subset, gen, cls in iso.pairs
        ],
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
