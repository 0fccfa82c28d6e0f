"""Benchmark of the cocycle package, run from outside through its public API.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--job I]

Workloads: crossed-hom, h2-lattice, descent, cli-suites (see bench/README.md).
Every run starts the workload in a fresh interpreter with a fixed
environment: ``PYTHONPATH`` is the checkout's ``src/``, ``COCYCLE_MAX_MEM_MB``
is removed, BLAS/OpenMP use one thread and ``PYTHONHASHSEED`` is fixed.
Set-up is timed in ``SETUP_SAMPLES`` separate processes, before and after
the measured one, and reported as their median. ``--trace 1`` runs the same jobs with spans around every
layer and reports per-layer metrics instead of end-to-end ones. ``--job I``
runs job I of the seeded list once and prints its latency and digest.

Earlier stdout lines are a human-readable report and a JSON record with the
per-job result digests and the (ungated) machine context; the last line is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every job's answer matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crossed-hom", "h2-lattice", "descent", "cli-suites")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "groups.build_s": "s",
    "groups.hom_search_s": "s",
    "groups.hom_candidates": "count",
    "groups.hom_yield": "ratio",
    "cohomology.h1_s": "s",
    "cohomology.candidates": "count",
    "cohomology.cocycles": "count",
    "cohomology.classes": "count",
    "cohomology.survivor_ratio": "ratio",
    "cohomology.candidate_bytes": "bytes",
    "cohomology.action_build_s": "s",
    "cohomology.induced_map_s": "s",
    "exactness.h2_s": "s",
    "exactness.h2_entries": "count",
    "exactness.delta_s": "s",
    "exactness.bijection_s": "s",
    "snf.smith_s": "s",
    "snf.calls": "count",
    "snf.max_rows": "count",
    "snf.max_cols": "count",
    "snf.entries": "count",
    "fields.tower_s": "s",
    "fields.towers_untabled": "count",
    "fields.gl_enum_s": "s",
    "galois.scan_s": "s",
    "galois.matrices_scanned": "count",
    "galois.scan_rate": "1/s",
    "galois.forms_s": "s",
    "galois.forms_gl_size": "count",
    "etale.classify_s": "s",
    "etale.realize_s": "s",
    "twisted.classify_s": "s",
    "quad.units_s": "s",
    "suites.forms_s": "s",
    "suites.h2_s": "s",
    "suites.hilbert90_s": "s",
    "suites.kernel-bijection_s": "s",
    "suites.shapiro_s": "s",
    "suites.twisted_s": "s",
    "suites.units_s": "s",
    "cli.import_s": "s",
    "serialize.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def fixed_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COCYCLE_MAX_MEM_MB"}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(env: dict, args: list[str]) -> tuple[int, dict | None, str]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args, "--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def setup_samples(env: dict, common: list[str], n: int) -> list[float]:
    """Set-up time of ``n`` processes that build the inputs and exit."""
    samples = []
    for _ in range(n):
        code, result, err = run_child(env, [*common, "--setup-only"])
        if result is None:
            raise SystemExit(f"set-up process exited with {code}:\n{err}")
        samples.append(result["setup_s"])
    return samples


def import_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter that only imports ``cocycle.cli``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cocycle.cli"], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def context() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--job", type=int, help="run only job I of the seeded list, once")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cocycle" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'cocycle'}", file=sys.stderr)
        return 2
    env = fixed_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    if args.job is not None:
        code, result, err = run_child(env, [*common, "--job", str(args.job)])
        sys.stderr.write(err)
        if result is None:
            return code or 1
        print(json.dumps(result, indent=1))
        return code

    # set-up samples are spread before and after the measured run, so their
    # median does not rest on one moment of the machine's load
    side = 0 if args.trace else SETUP_SAMPLES // 2
    setups = setup_samples(env, common, side)
    code, result, err = run_child(env, common)
    if result is None:
        sys.stderr.write(err)
        print(f"error: workload process exited with {code} and no result", file=sys.stderr)
        return code or 1
    setups += [result["setup_s"], *setup_samples(env, common, side)]

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layers = dict(result["layers"])
        layers["cli.import_s"] = import_seconds(env)
        units = PER_LAYER_UNITS
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": result["wall_s"],
            "job_p50_s": result["job_p50_s"],
            "job_tail_s": result["job_tail_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    fail_ratio = failed / attempted if attempted else 1.0
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {fail_ratio:.6g} ratio ({failed} of {attempted} jobs)")
    print(
        f"{args.workload} job_tail_s is p{result['tail_percentile']} of "
        f"{result['jobs_per_pass']} jobs per pass, over {result['passes']} passes"
    )
    for note in result["notes"]:
        print(f"FAILED {note}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": fail_ratio,
        "setup_samples_s": setups,
        "passes": result["passes"],
        "tail_percentile": result["tail_percentile"],
        "jobs_per_pass": result["jobs_per_pass"],
        "context": context(),
        "digests": result["digests"],
        "job_latency_s": result["job_latency_s"],
    }
    if "trace_file" in result:
        record["trace_file"] = result["trace_file"]
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
