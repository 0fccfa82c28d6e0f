"""Run the ``cocycle`` entry point with the benchmark's tracer installed.

Usage: python bench/cli_traced.py SPANS_JSON [cocycle arguments...]

Spans and counters are written to SPANS_JSON when the command returns; the
command's stdout, stderr and exit code are passed through unchanged.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cocycle.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.phase = 0
    try:
        code = cocycle.cli.main(argv)
    finally:
        tracer.uninstall()
        data = tracer.dump()
        data["counts"] = data["counts"].get("0", {})
        data["maxima"] = data["maxima"].get("0", {})
        Path(out_path).write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
