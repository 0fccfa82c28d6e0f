"""Checks that survive ``python -O``, report fields derived from the work done,
and no dead code in ``src/``.

``assert`` statements vanish under ``-O``, so no file in ``src/`` may hold one,
nor any helper module under ``tests/`` that pytest does not rewrite: every
load-bearing check raises an exception instead. The boolean
report fields that the CLI prints (``all_coboundaries``, ``matched``) are
computed from the report, so a report that does not satisfy them prints
``false``. Every module-level function and class in ``src/``, and every
module-level constant of ``errors.py``, is used there,
exported in ``cocycle.__all__``, or kept for a reason stated below; so is
every method of a class outside ``cocycle.__all__``; every public method of
an exported class is named in ``src/``, ``tests/`` or ``bench/``. No
function takes a bound parameter except the five that the CLI's bound flags
set. Only ``groups``, where ``product_chunks`` sizes every product-order
stream, names ``ENGINE_CHUNK``; ``make_group`` is called only on tables handed
over whole, every derived table coming from ``group_table``. Inside the
crossed-hom engine a group table is read only through ``groups._product``.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

import cocycle
from cocycle import cli, galois, quad, serialize
from cocycle.errors import CounterexampleFound
from cocycle.quad import make_ring, verify_units_iso

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_statements(files) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert assert_statements(files) == []


def test_no_assert_statements_in_test_helpers():
    # pytest rewrites asserts only in test modules and conftest; an oracle's
    # own checks would vanish under -O
    tests = Path(__file__).parent
    helpers = sorted(p for p in tests.glob("*.py") if not p.name.startswith("test_"))
    assert "matrix_oracle.py" in [p.name for p in helpers]
    assert assert_statements(helpers) == []


def test_only_groups_names_the_chunk_constant():
    # a module that read ENGINE_CHUNK would size its own chunks, past product_chunks
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "ENGINE_CHUNK" in names and path.name != "groups.py":
                readers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert readers == []


def test_make_group_takes_only_tables_handed_over_whole():
    # every table the package derives is sized and filled by groups.group_table;
    # make_group copies a table that exists before it, from a file or a literal
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "make_group":
                        callers.append(f"{path.stem}.{getattr(top, 'name', node.lineno)}")
    assert sorted(callers) == ["groups.quaternion_group", "serialize.load_group"]


def test_engine_reads_tables_only_through_the_product_kernel():
    # groups._product reads a raveled table once at intp offsets a * width + b; a
    # table[x, y] gather of two index arrays converts both and walks two strides
    tree = ast.parse((SRC / "cocycle" / "groups.py").read_text(encoding="utf-8"))
    engine = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("crossed_homs", "coboundary_classes")
    ]
    assert len(engine) == 2
    reads = []
    for node in (n for function in engine for line in function.body for n in ast.walk(line)):
        if not isinstance(node, ast.Subscript):
            continue
        value, index = node.value, node.slice
        names_table = isinstance(value, ast.Attribute) and value.attr == "table" or (
            isinstance(value, ast.Name) and value.id == "table"
        )
        entries = index.elts if isinstance(index, ast.Tuple) else [index]
        arrays = [
            e for e in entries
            if not isinstance(e, ast.Slice) and not (isinstance(e, ast.Constant) and e.value is None)
        ]
        if names_table or len(arrays) > 1:
            reads.append(f"groups.py:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


#: Module-level names that nothing in ``src/`` uses, and why each stays.
KEPT_WITHOUT_CALLER = {
    "enumerate_gl": "bench/tracer.py wraps it by name for fields.gl_enum",
    "enumerate_sl": "bench/tracer.py wraps it by name for fields.gl_enum",
    "trace_discriminant_matches_sign": "tests check discriminant() against it as a second route",
    "perm_cycle_type": "tests check the etale cycle types against it as a second route",
    "__getattr__": "called by the interpreter (PEP 562)",
    "__dir__": "called by the interpreter (PEP 562)",
}


def test_every_src_definition_is_used_exported_or_kept():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    used = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    defined = {
        node.name: f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # the bounds of errors.py: a retired one must not linger
    defined.update(
        (target.id, f"errors.py:{node.lineno}")
        for node in trees[SRC / "cocycle" / "errors.py"].body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    )
    # methods of internal classes: nothing outside src/ can reach them by the public API
    defined.update(
        (method.name, f"{path.relative_to(SRC)}:{method.lineno}")
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name not in cocycle.__all__
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
    )
    unused = {name: where for name, where in defined.items() if name not in used}
    dead = sorted(
        where for name, where in unused.items()
        if name not in cocycle.__all__ and name not in KEPT_WITHOUT_CALLER
    )
    assert dead == []
    assert sorted(KEPT_WITHOUT_CALLER) == sorted(set(KEPT_WITHOUT_CALLER) & set(unused))


def test_oracles_share_no_smith_form_with_the_package():
    # the bar-route and engine oracles take their Smith forms from tests/smith_oracle.py
    tests = Path(__file__).resolve().parent
    shared = []
    for name in ("h2_oracle.py", "engine_oracle.py"):
        for node in ast.walk(ast.parse((tests / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules, names = [node.module or ""], [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules, names = [alias.name for alias in node.names], []
            else:
                continue
            if any(m == "cocycle.snf" or m.endswith(".snf") for m in modules) or any(
                n in ("snf", "_lattice_coords") for n in names
            ):
                shared.append(f"{name}:{node.lineno}")
    assert shared == []


def test_field_oracle_shares_no_arithmetic_with_the_package():
    # tests/field_oracle.py multiplies polynomials itself; it imports no tower arithmetic
    tree = ast.parse((Path(__file__).resolve().parent / "field_oracle.py").read_text("utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or "."] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert [m for m in imported if "cocycle" in m or "fields" in m or m == "."] == []


def test_matrix_oracle_shares_no_elimination_with_the_package():
    # tests/matrix_oracle.py eliminates by hand; it takes no rref, mat_* or
    # batch_det/batch_inv from cocycle, by import or by attribute
    tree = ast.parse((Path(__file__).resolve().parent / "matrix_oracle.py").read_text("utf-8"))
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and "cocycle" in (node.module or ""):
            taken += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            taken.append(node.attr)
    assert "FqTower" in taken
    eliminations = ("rref", "batch_det", "batch_inv")
    assert [n for n in taken if n in eliminations or n.startswith("mat_")] == []


def test_every_public_method_of_an_exported_class_is_named():
    # the public API keeps no method that neither src/, tests/ nor bench/ names
    named = set()
    folders = [SRC.parent / folder for folder in ("src", "tests", "bench")]
    for path in (p for folder in folders for p in folder.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unnamed = sorted(
        f"{path.relative_to(SRC)}:{method.lineno} {node.name}.{method.name}"
        for path in SRC.rglob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name in cocycle.__all__
        for method in node.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in named
    )
    assert unnamed == []


#: The only bound parameters: what the --max-field and --max-group-order flags set.
CLI_BOUND_PARAMETERS = {
    ("fields.py", "__init__", "max_field"),
    ("fields.py", "make_tower", "max_field"),
    ("serialize.py", "load_tensor", "max_field"),
    ("serialize.py", "load_group", "max_order"),
    ("serialize.py", "load_action", "max_order"),
    ("serialize.py", "check_family_order", "max_order"),  # load_group's and etale's S_m check
}


def test_bounds_are_constants_not_parameters():
    # every other bound is a constant in errors.py, read where its work is sized
    found = {
        (path.name, node.name, arg.arg)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        if arg.arg.startswith("max_") or "limit" in arg.arg
    }
    assert found == CLI_BOUND_PARAMETERS


def _hilbert90_json(monkeypatch, capsys, doctor) -> dict:
    real = galois.hilbert90_verify
    monkeypatch.setattr(galois, "hilbert90_verify", lambda tower, m: doctor(real(tower, m)))
    assert cli.main(["hilbert90", "--tower", "3x1x2", "--dim", "2"]) == 0
    return json.loads(capsys.readouterr().out)


def test_all_coboundaries_is_derived(monkeypatch, capsys):
    honest = _hilbert90_json(monkeypatch, capsys, lambda report: report)
    assert honest["all_coboundaries"] is True
    doctored = _hilbert90_json(
        monkeypatch,
        capsys,
        lambda report: dataclasses.replace(report, n_coboundaries=report.n_cocycles - 1),
    )
    assert doctored["all_coboundaries"] is False
    assert {k: v for k, v in doctored.items() if k != "all_coboundaries"} == {
        k: v for k, v in honest.items() if k != "all_coboundaries"
    }


@pytest.mark.parametrize(
    "doctor",
    [
        lambda pairs: pairs + pairs[:1],  # one class matched twice
        lambda pairs: pairs[:-1],  # fewer pairs than classes
        lambda pairs: tuple((s, g, pairs[0][2]) for s, g, _ in pairs),  # one class for all
    ],
    ids=["repeated-pair", "missing-pair", "merged-classes"],
)
def test_units_matched_is_derived(doctor, monkeypatch):
    real = verify_units_iso(make_ring(5))
    assert real.matched and len(real.pairs) == real.h1.order == 2
    fake = dataclasses.replace(real, pairs=doctor(real.pairs))
    assert not fake.matched
    monkeypatch.setattr(quad, "verify_units_iso", lambda ring: fake)
    assert '"matched": false' in serialize.dumps(cli.quad_payload(5))


def test_quad_checks_raise_counterexamples():
    ring = make_ring(5)
    with pytest.raises(CounterexampleFound, match="quotient is not integral"):
        quad._unit_quotient(ring, (1, 0), (2, 0))
