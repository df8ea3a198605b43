"""Command line of the full-paper-scenario benchmark.

Run from the root of a checkout::

    python3 paperbench/run.py --workload paper_cold --seed 20131001 \\
        --seconds 20 --trace 0

It builds nothing: the program is imported from the checkout's ``src``.
Progress and failures go to stderr.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics and
writes a trace report under ``.paperbench/traces/``.  Without the
program's source next to this directory it exits with code 2 and prints
no result.
"""

from __future__ import annotations

import time

# Set-up time counts from here, so it includes importing the program.
T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_cold", "paper_warm", "paper_chaos")
#: The seed ``tests/golden/paper.json`` was made with.
GOLDEN_SEED = 20131001


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"paperbench: no program source at {src}; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    import harness

    result = harness.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        root=ROOT,
        t_start=T_START,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
