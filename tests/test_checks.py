"""Checks that survive ``python -O`` and report fields derived from the work done.

``assert`` statements vanish under ``-O``, so no file in ``src/`` may hold one:
every load-bearing check raises a dedicated exception instead. The boolean
report fields that the CLI prints (``all_coboundaries``, ``matched``) are
computed from the report, so a report that does not satisfy them prints
``false``.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from cocycle import cli, quad, serialize
from cocycle.errors import CounterexampleFound
from cocycle.quad import make_ring, verify_units_iso

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _hilbert90_json(monkeypatch, capsys, doctor) -> dict:
    real = cli.hilbert90_verify
    monkeypatch.setattr(cli, "hilbert90_verify", lambda tower, m: doctor(real(tower, m)))
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
    monkeypatch.setattr(serialize, "verify_units_iso", lambda ring: fake)
    assert '"matched": false' in serialize.dumps(serialize.quad_payload(5))


def test_quad_checks_raise_counterexamples():
    ring = make_ring(5)
    with pytest.raises(CounterexampleFound, match="quotient is not integral"):
        quad._unit_quotient(ring, (1, 0), (2, 0))
