import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cocycle import etale, serialize
from cocycle.cli import main
from cocycle.fields import make_tower
from cocycle.serialize import load_group

SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def mu4_action_file(tmp_path):
    return write(
        tmp_path,
        "mu4.json",
        {
            "gamma": {"family": "cyclic", "n": 2},
            "base": {"family": "cyclic", "n": 4},
            "action": [[0, 1, 2, 3], [0, 3, 2, 1]],
        },
    )


class TestH1Command:
    def test_mu4_two_classes(self, tmp_path, capsys):
        code = main(["h1", "--input", mu4_action_file(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == 2
        assert payload["seed"] == 0

    def test_trivial_group_fixture(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "triv.json",
            {
                "gamma": {"family": "cyclic", "n": 1},
                "base": {"family": "cyclic", "n": 1},
                "action": [[0]],
            },
        )
        assert main(["h1", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == 1

    def test_explicit_table_group(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "table.json",
            {
                "gamma": {"order": 2, "table": [[0, 1], [1, 0]]},
                "base": {"order": 2, "table": [[0, 1], [1, 0]], "labels": ["e", "s"]},
                "action": [[0, 1], [0, 1]],
            },
        )
        assert main(["h1", "--input", path]) == 0
        assert json.loads(capsys.readouterr().out)["classes"] == 2

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"gamma": [,]}')
        assert main(["h1", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["h1", "--input", str(tmp_path / "nope.json")]) == 1

    def test_oversized_exit_2_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "h1",
                "--input",
                mu4_action_file(tmp_path),
                "--max-group-order",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_out_file_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        path = mu4_action_file(tmp_path)
        assert main(["h1", "--seed", "7", "--input", path, "--out", str(out1)]) == 0
        assert main(["h1", "--seed", "7", "--input", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["seed"] == 7

    def test_tsv_format(self, tmp_path, capsys):
        assert main(["h1", "--format", "tsv", "--input", mu4_action_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "classes\t2" in out


class TestEtaleCommand:
    def test_z2_dim2(self, tmp_path, capsys):
        path = write(tmp_path, "z2.json", {"family": "cyclic", "n": 2})
        assert main(["etale", "--input", path, "--dim", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2

    def test_trivial_dim3(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", {"family": "cyclic", "n": 1})
        assert main(["etale", "--input", path, "--dim", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1

    @pytest.mark.parametrize(
        "family,n,bound", [("dihedral", 600, "100"), ("cyclic", 10**6, "40320")]
    )
    def test_oversized_family_exit_2_before_building(self, tmp_path, capsys, family, n, bound):
        # the bound is compared with n, 2n or n! before any table exists
        path = write(tmp_path, "big.json", {"family": family, "n": n})
        assert main(["etale", "--input", path, "--dim", "2", "--max-group-order", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "resource bound exceeded" in captured.err

    def test_symmetric_group_over_the_bound_exit_2_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        # |S_4| = 24 > 10 is refused before gamma or S_4 has a table; |S_3| = 6 fits
        path = write(tmp_path, "t.json", {"family": "cyclic", "n": 1})
        built = []
        monkeypatch.setattr(serialize, "load_group", lambda *args: built.append(args) or load_group(*args))
        assert main(["etale", "--input", path, "--dim", "4", "--max-group-order", "10"]) == 2
        captured = capsys.readouterr()
        assert built == [] and captured.out == ""
        assert "resource bound exceeded: symmetric group with n=4 exceeds order bound 10" in captured.err
        assert main(["etale", "--input", path, "--dim", "3", "--max-group-order", "10"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 1

    def test_table_over_the_memory_budget_exit_2_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        # |S_8| = 40320 passes the order bound, but its 3.25 GB table is over the
        # default memory budget, which applies when COCYCLE_MAX_MEM_MB is unset
        monkeypatch.delenv("COCYCLE_MAX_MEM_MB", raising=False)
        path = write(tmp_path, "t.json", {"family": "cyclic", "n": 1})
        tracemalloc.start()
        try:
            code = main(["etale", "--input", path, "--dim", "8"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and peak < 1 << 20
        assert "resource bound exceeded: group multiplication table needs" in captured.err

    def test_realization_over_the_element_bound_exit_2(self, tmp_path, capsys, monkeypatch):
        # validating a 4-dimensional algebra over F_3 walks its 81 elements
        monkeypatch.setattr(etale, "DEFAULT_MAX_CANDIDATES", 80)
        path = write(tmp_path, "z2.json", {"family": "cyclic", "n": 2})
        assert main(["etale", "--input", path, "--dim", "4", "--tower", "3x1x2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource bound exceeded: 81 algebra elements exceed bound 80" in captured.err

    def test_with_tower_realization(self, tmp_path, capsys):
        path = write(tmp_path, "z4.json", {"family": "cyclic", "n": 4})
        assert main(["etale", "--input", path, "--dim", "4", "--tower", "3x1x4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        structures = sorted(
            tuple(r["factor_structure"]) for r in payload["rows"]
        )
        assert structures == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (4,)]
        for row in payload["rows"]:
            assert row["realized_factor_degrees"] == row["factor_structure"]

    def test_tsv_rows(self, tmp_path, capsys):
        path = write(tmp_path, "z2.json", {"family": "cyclic", "n": 2})
        assert main(["etale", "--format", "tsv", "--input", path, "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("discriminant_trivial\t")


DROPPED_VECTOR = """
import json, sys
import cocycle.galois as G
from cocycle import cli

mat_kernel = G.mat_kernel
# a kernel routine that loses one basis vector: descent must fail loudly
G.mat_kernel = lambda tower, rows: mat_kernel(tower, rows)[:-1]
code = cli.main(["etale", "--input", sys.argv[1], "--dim", "2", "--tower", "3x1x2"])
print(json.dumps({"optimize": sys.flags.optimize, "exit": code}))
"""


def test_descent_dimension_failure_exits_3_under_python_O(tmp_path):
    path = write(tmp_path, "z2.json", {"family": "cyclic", "n": 2})
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", DROPPED_VECTOR, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"optimize": 1, "exit": 3}
    assert "verification failure: fixed space has k-dimension 1, expected 2" in proc.stderr


WRONG_ORACLE = """
import json, sys
import cocycle.suites as S
from cocycle import cli

oracle = S.h2_brute_force_order
# an H2 oracle that is off by one: the engine comparison must fail the case
S.h2_brute_force_order = lambda gamma, pres: oracle(gamma, pres) + 1
code = cli.main(["verify", "--suite", "h2"])
print(json.dumps({"optimize": sys.flags.optimize, "exit": code}))
"""


def test_suite_check_fails_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WRONG_ORACLE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *machine, last = proc.stdout.strip().splitlines()
    assert json.loads(last) == {"optimize": 1, "exit": 3}
    rows = json.loads("\n".join(machine))["rows"]
    failed = [r for r in rows if not r["passed"]]
    assert failed and failed[0]["case"] == "H2(Z/2, Z/2)"
    assert failed[0]["details"] == {"error": "engine 2 != oracle 3"}
    assert "[h2] FAIL H2(Z/2, Z/2)" in proc.stderr


class TestHilbert90Command:
    def test_gl(self, capsys):
        assert main(["hilbert90", "--tower", "3x1x2", "--dim", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cocycles"] == 4
        assert payload["all_coboundaries"]

    def test_sl(self, capsys):
        assert main(["hilbert90", "--tower", "2x1x2", "--dim", "2", "--sl"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_size"] == 60

    def test_sl_on_tableless_tower(self, capsys):
        # 37^2 = 1369 is above the dense-table limit and 31^2 = 961 below it
        assert not make_tower(37, 1, 2)._tables_built and make_tower(31, 1, 2)._tables_built
        counts = []
        for spec in ("37x1x2", "31x1x2"):
            assert main(["hilbert90", "--tower", spec, "--dim", "1", "--sl"]) == 0
            payload = json.loads(capsys.readouterr().out)
            counts.append((payload["group_size"], payload["cocycles"]))
        assert counts == [(1, 1), (1, 1)]

    def test_bad_tower_spec(self, capsys):
        assert main(["hilbert90", "--tower", "nonsense"]) == 1

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("sl", [[], ["--sl"]], ids=["gl", "sl"])
    def test_dimension_below_one(self, capsys, dim, sl):
        assert main(["hilbert90", "--tower", "2x1x2", "--dim", dim, *sl]) == 1
        assert "input error: matrix size must be at least 1" in capsys.readouterr().err

    def test_field_bound(self, capsys):
        assert main(["hilbert90", "--tower", "3x1x2", "--max-field", "8"]) == 2


class TestFormsCommand:
    def test_sum_of_squares(self, tmp_path, capsys):
        obj = {
            "p": 3,
            "d": 1,
            "n": 2,
            "dim": 2,
            "type": [2, 0],
            "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]],
        }
        path = write(tmp_path, "q.json", obj)
        assert main(["forms", "--input", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == 2
        assert payload["cohomology_classes"] == 2

    def test_bad_digit(self, tmp_path):
        obj = {
            "p": 3,
            "d": 1,
            "n": 2,
            "dim": 1,
            "type": [2, 0],
            "coeffs": [[9, 0]],
        }
        assert main(["forms", "--input", write(tmp_path, "bad.json", obj)]) == 1

    def test_dimension_zero(self, tmp_path, capsys):
        obj = {"p": 3, "d": 1, "n": 2, "dim": 0, "type": [2, 0], "coeffs": []}
        assert main(["forms", "--input", write(tmp_path, "dim0.json", obj)]) == 1
        assert "input error" in capsys.readouterr().err


def _rejected(argv, capsys, field):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err and field in captured.err


Z2_TABLE = [[0, 1], [1, 0]]


class TestNonIntegralInput:
    """Each number field needs a JSON integer (int() would truncate 2.7 to 2
    and read true as 1): every case exits 1 with the field in the message."""

    @pytest.mark.parametrize(
        "gamma,base,action,field",
        [
            ({"family": "cyclic", "n": 2.7}, {"family": "cyclic", "n": 2}, [[0, 1], [0, 1]], "'n'"),
            ({"family": "cyclic", "n": True}, {"family": "cyclic", "n": 1}, [[0]], "'n'"),
            ({"order": 2.0, "table": Z2_TABLE}, {"family": "cyclic", "n": 2}, [[0, 1], [0, 1]], "'order'"),
            ({"family": "cyclic", "n": 2}, {"table": [[0, 1.9], [1, 0]]}, [[0, 1], [0, 1]], "table"),
            ({"family": "cyclic", "n": 2}, {"family": "cyclic", "n": 2}, [[0, 1.2], [0.5, 1]], "action"),
        ],
    )
    def test_action_file(self, tmp_path, capsys, gamma, base, action, field):
        path = write(tmp_path, "a.json", {"gamma": gamma, "base": base, "action": action})
        _rejected(["h1", "--input", path], capsys, field)

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"p": 3.9}, "'p'"),
            ({"d": True}, "'d'"),
            ({"n": 2.0}, "'n'"),
            ({"dim": 2.5}, "'dim'"),
            ({"type": [2.0, 0]}, "'type'"),
            ({"type": [-1, 0]}, "'type'"),
            ({"coeffs": [[1.5, 0], [0, 0], [0, 0], [1, 0.2]]}, "digit"),
        ],
    )
    def test_tensor_file(self, tmp_path, capsys, change, field):
        obj = {"p": 3, "d": 1, "n": 2, "dim": 2, "type": [2, 0], "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]}
        _rejected(["forms", "--input", write(tmp_path, "t.json", obj | change)], capsys, field)

    @pytest.mark.parametrize("n", [2.7, True, "2"])
    def test_group_file(self, tmp_path, capsys, n):
        path = write(tmp_path, "g.json", {"family": "cyclic", "n": n})
        _rejected(["etale", "--input", path, "--dim", "2"], capsys, "'n'")

    def test_group_file_without_n(self, tmp_path, capsys):
        # a missing field is named as missing, not as a bare KeyError text
        path = write(tmp_path, "g.json", {"family": "cyclic"})
        _rejected(["etale", "--input", path, "--dim", "2"], capsys, "'cyclic' is missing 'n'")


TENSOR = {"p": 3, "d": 1, "n": 2, "dim": 2, "type": [2, 0], "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]}


@pytest.mark.parametrize(
    "argv,obj,field",
    [
        (["forms"], 5, "tensor file"),
        (["forms"], TENSOR | {"type": 5}, "'type'"),
        (["forms"], TENSOR | {"coeffs": 5}, "'coeffs'"),
        (["etale", "--dim", "2"], {"table": Z2_TABLE, "labels": 5}, "'labels'"),
        (["etale", "--dim", "2"], {"family": ["cyclic"], "n": 2}, "family"),
    ],
)
def test_malformed_input_file_is_an_input_error(tmp_path, capsys, argv, obj, field):
    # a field of the wrong JSON type exits 1 naming it, not with a traceback
    path = write(tmp_path, "in.json", obj)
    assert main([argv[0], "--input", path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error") and field in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


class TestQuadCommand:
    def test_d5(self, capsys):
        assert main(["quad", "--d", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quotient_order"] == 2
        assert payload["h1_order"] == 2
        assert payload["matched"]
        assert [r["p"] for r in payload["ramified"]] == [2, 5]

    def test_not_squarefree(self, capsys):
        assert main(["quad", "--d", "8"]) == 1

    def test_d_below_one_exit_1_above_the_bound_exit_2(self, capsys):
        for d in ("0", "-5"):
            assert main(["quad", "--d", d]) == 1
            assert "input error: d must be a positive integer" in capsys.readouterr().err
        assert main(["quad", "--d", "201"]) == 2
        assert "resource bound exceeded" in capsys.readouterr().err


class TestVerifyCommand:
    def test_units_suite(self, capsys):
        assert main(["verify", "--suite", "units"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["failed"] == 0
        assert payload["cases"] == 9
        assert "[units] pass d=1" in captured.err

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 1

    def test_machine_output_has_no_timing(self, capsys):
        assert main(["verify", "--suite", "forms"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "seconds" not in json.dumps(payload)

    def test_every_suite(self, capsys):
        from cocycle.suites import SUITES

        assert main(["verify", "--suite", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counts = {"forms": 3, "h2": 14, "hilbert90": 17, "kernel-bijection": 46, "shapiro": 21,
                  "twisted": 17, "units": 9}
        assert payload["suites"] == sorted(SUITES) == list(counts)
        assert [r["suite"] for r in payload["rows"]] == [s for s, n in counts.items() for _ in range(n)]
        assert payload["cases"] == 127 and payload["failed"] == 0
        distinct = {s: len({r["case"] for r in payload["rows"] if r["suite"] == s}) for s in counts}
        # kernel-bijection labels name the stable subgroup's members, so two
        # subgroups of one order (D4 and Q8 have several) get distinct labels
        assert distinct == {**counts, "kernel-bijection": 46}

    def test_resource_bound_is_not_a_counterexample(self, monkeypatch, capsys):
        # the GL scan's chunk needs more than 1 MiB: a bound, so exit 2 and no rows
        monkeypatch.setenv("COCYCLE_MAX_MEM_MB", "1")
        assert main(["verify", "--suite", "hilbert90"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "resource bound exceeded: matrix scan chunk needs" in captured.err
        assert "FAIL" not in captured.err

    def test_each_row_reaches_stderr_when_its_case_finishes(self, monkeypatch, capsys):
        from cocycle import suites
        from cocycle.errors import SizeLimit

        real, calls = suites.verify_units_iso, []

        def third_call_hits_a_bound(ring):
            calls.append(ring)
            if len(calls) == 3:
                raise SizeLimit("third ring")
            return real(ring)

        monkeypatch.setattr(suites, "verify_units_iso", third_call_hits_a_bound)
        assert main(["verify", "--suite", "units"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert [line.split(" (")[0] for line in err[:2]] == ["[units] pass d=1", "[units] pass d=2"]
        assert err[2:] == ["resource bound exceeded: third ring"]

    def test_small_bijection_corpus_fails_before_any_case(self, monkeypatch, capsys):
        from cocycle import suites

        real = suites.kernel_bijection_corpus
        monkeypatch.setattr(suites, "kernel_bijection_corpus", lambda: real()[:2])
        assert main(["verify", "--suite", "kernel-bijection"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verification failure: bijection corpus has only 6 triples\n"

    def test_help_names_every_suite(self):
        import argparse

        from cocycle.cli import build_parser
        from cocycle.suites import SUITES

        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
        assert suite.help.split(" | ") == sorted(SUITES) + ["all"]


FOOTPRINT = """
import json, sys
from cocycle import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help and argument errors
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("cocycle", "numpy"))
print(json.dumps({"exit": code, "loaded": loaded}))
"""

#: the layer modules each command reads, beyond the package root, cli and errors
BASE = {"groups", "cohomology", "serialize"}
GALOIS = BASE | {"fields", "galois"}
EVERY = {path.stem for path in (SRC / "cocycle").glob("*.py")} - {"__init__"}


def sum_of_squares_file(tmp_path):
    obj = {"p": 3, "d": 1, "n": 2, "dim": 2, "type": [2, 0], "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    return write(tmp_path, "q.json", obj)


@pytest.mark.parametrize(
    "argv,exit_code,layers,numpy_loaded",
    [
        (lambda tmp: ["h1", "--input", mu4_action_file(tmp)], 0, BASE, True),
        (lambda tmp: ["quad", "--d", "5"], 0, BASE | {"quad", "fields"}, True),
        (lambda tmp: ["hilbert90", "--tower", "3x1x2", "--dim", "2"], 0, GALOIS, True),
        (lambda tmp: ["hilbert90", "--tower", "2x1x2", "--dim", "2", "--sl"], 0, GALOIS, "no numpy.ma"),
        (lambda tmp: ["forms", "--input", sum_of_squares_file(tmp)], 0, GALOIS, "no numpy.ma"),
        (
            lambda tmp: ["etale", "--input", write(tmp, "z2.json", {"family": "cyclic", "n": 2}),
                         "--dim", "2", "--tower", "3x1x2"],
            0, GALOIS | {"etale"}, "no numpy.ma",
        ),
        (lambda tmp: ["verify", "--suite", "units"], 0, EVERY, True),
        (lambda tmp: ["verify", "--suite", "h2"], 0, EVERY, "no numpy.ma"),
        (lambda tmp: ["--help"], 0, set(), False),
        (lambda tmp: ["h1"], 2, set(), False),  # argparse: --input is required
    ],
    ids=["h1", "quad", "hilbert90", "hilbert90-sl", "forms", "etale", "verify", "verify-h2", "help",
         "arg-error"],
)
def test_a_command_loads_only_its_layers(tmp_path, argv, exit_code, layers, numpy_loaded):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == exit_code, proc.stderr
    loaded = set(result["loaded"])
    package = {m.removeprefix("cocycle.") for m in loaded if m.startswith("cocycle.")}
    assert package - {"cli", "errors"} <= layers
    assert ("numpy" in loaded) is bool(numpy_loaded)
    if numpy_loaded == "no numpy.ma":  # a plain np.unique would import it
        assert "numpy.ma" not in loaded


def test_the_package_root_loads_no_layer():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, cocycle; print(sorted(m for m in sys.modules if m.startswith(('cocycle', 'numpy'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "['cocycle']", proc.stderr
