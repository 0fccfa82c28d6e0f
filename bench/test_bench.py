"""Self-test of the benchmark.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
Each test starts real workload processes, so the file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Started through sitecustomize in every benchmark process: h1 drops the last
# class of every answer with more than one class.
WRONG_H1 = """
import cocycle
from cocycle.cohomology import H1Set

_h1 = cocycle.h1


def h1(parent, *args, **kwargs):
    h = _h1(parent, *args, **kwargs)
    if h.order > 1:
        return H1Set(h.parent, h.classes[:-1], h.class_of, h.distinguished)
    return h


cocycle.h1 = h1
"""


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_injected_wrong_result_fails(tmp_path, monkeypatch, capsys):
    (tmp_path / "sitecustomize.py").write_text(WRONG_H1)
    fixed = run.fixed_env

    def env_with_fault():
        env = fixed()
        env["PYTHONPATH"] = f"{tmp_path}:{env['PYTHONPATH']}"
        return env

    monkeypatch.setattr(run, "fixed_env", env_with_fault)
    code = run.main(["--workload", "crossed-hom", "--seed", "1", "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    result = last_json(out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    fail_ratio = json.loads(out.strip().splitlines()[-2])["fail_ratio"]
    assert 0 < fail_ratio == result["failed"] / result["attempted"]


def test_clean_run_passes_and_prints_every_metric(capsys):
    code = run.main(["--workload", "h2-lattice", "--seed", "5", "--seconds", "1", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(result["metrics"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_spans_nest(capsys):
    code = run.main(["--workload", "descent", "--seed", "2", "--seconds", "1", "--trace", "1"])
    out = capsys.readouterr().out
    result = last_json(out)
    assert code == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])
    trace = json.loads((ROOT / json.loads(out.strip().splitlines()[-2])["trace_file"]).read_text())
    spans = trace["spans"]
    self_sum: dict[int, float] = {}
    children: dict[int, list] = {}
    for idx, (name, start, end, parent, phase, job) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2], f"span {name} leaves its parent {p[0]}"
            assert p[4] == phase and p[5] == job
            children.setdefault(parent, []).append((start, end))
    for idx, (name, start, end, parent, phase, job) in enumerate(spans):
        kids = sorted(children.get(idx, []))
        for (s1, e1), (s2, e2) in zip(kids, kids[1:]):
            assert e1 <= s2, "sibling spans overlap"
        own = (end - start) - sum(e - s for s, e in kids)
        self_sum[phase] = self_sum.get(phase, 0.0) + own
    for phase, wall in enumerate(trace["pass_walls"]):
        assert self_sum.get(phase, 0.0) <= wall
    # nothing is recorded after set-up outside the traced passes
    setup_end = max(end for name, start, end, parent, phase, job in spans if phase == -1)
    first_pass = min(start for name, start, end, parent, phase, job in spans if phase >= 0)
    assert setup_end <= first_pass


def test_single_job_mode(capsys):
    code = run.main(["--workload", "descent", "--seed", "3", "--seconds", "1", "--trace", "0", "--job", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["job"] == 4 and out["failed"] == 0 and len(out["digest"]) == 16


def test_same_seed_same_jobs():
    ctx = workloads.Context(root=ROOT, env={}, outdir=BENCH / "out")
    first = [j.name for j in workloads.build("h2-lattice", 7, ctx)]
    again = [j.name for j in workloads.build("h2-lattice", 7, ctx)]
    other = [j.name for j in workloads.build("h2-lattice", 8, ctx)]
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "descent", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("n, m, u, order", [(4, 5, 2, 1), (4, 8, 3, 2), (2, 8, 7, 2)])
def test_cyclic_h2_reference(n, m, u, order):
    assert workloads.cyclic_h2_order(n, m, u) == order
