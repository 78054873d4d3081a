"""Benchmark of the daha workbench.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

One process, one thread.  Imports ``daha`` from ``src/``, draws every
input from ``--seed`` and checks every output exactly.  With
``--trace 0`` it times whole cycles of items for at least ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs
the cycle once, each item untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is the run record (seed, item mix, platform, fail
ratio, digests).

Exit codes: 0 every output correct, 1 an output failed its check,
2 the benchmark could not run (for example, no ``src/daha``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness.bench import run_benchmark  # noqa: E402
from harness.workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "daha", "__init__.py")):
        print(f"perfbench: no daha sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spans = None
    if args.trace:
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.csv")
    try:
        result, record = run_benchmark(
            args.workload, args.seed, args.seconds, args.trace, ROOT, spans_path=spans
        )
    except ImportError as exc:
        print(f"perfbench: cannot import daha: {exc}", file=sys.stderr)
        return 2
    for line in record["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
