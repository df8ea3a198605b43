#!/usr/bin/env python
"""Replica study: p05/median/p95 bands on every headline statistic.

One simulated Titan is a single sample from the generative model —
just as the real Titan was a single sample from physics.  This example
runs the study as a sweep with ``replicas=N``: replica 0 is the base
seed, the others re-seed the same scenario.  The sweep engine shards the
replicas over worker processes, journals each one, and reduces them to
per-statistic bands and per-check pass counts, which is how
EXPERIMENTS.md tells "calibrated" agreement from luck.

Usage::

    python examples/replica_uncertainty.py [--replicas 4] [--workers 2]
                                           [--days 90] [--cache-dir DIR]

With ``--cache-dir`` a rerun is warm: every replica's summary is reused
from the store, and an interrupted campaign resumes with
``python -m repro sweep run --spec <spec.json> --resume``.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.cache import ArtifactStore
from repro.core.report import render_table
from repro.sweep import SweepSpec, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--days", type=float, default=90.0)
    parser.add_argument("--full", action="store_true",
                        help="use the 21-month paper window (slow)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="keep the sweep's store here (default: a "
                             "temporary directory)")
    args = parser.parse_args()

    spec = SweepSpec(
        name="replicas",
        base="paper" if args.full else "smoke",
        days=args.days,
        replicas=args.replicas,
    )
    print(f"Running {spec.replicas} replicas on {args.workers} workers "
          f"({'paper window' if args.full else f'{args.days:.0f}-day window'})...")
    with tempfile.TemporaryDirectory() as scratch:
        root = args.cache_dir if args.cache_dir is not None else scratch
        report = run_sweep(spec, ArtifactStore(root), n_workers=args.workers)
    table = report.document

    (band,) = table["bands"]
    rows = [
        [stat, f"{lo:.3g}", f"{med:.3g}", f"{hi:.3g}"]
        for stat, (lo, med, hi) in band["headline"].items()
    ]
    print(render_table(["statistic", "p05", "median", "p95"], rows))
    print("\nPer-replica DBE totals:",
          [int(row["dbe_total"]) for row in table["rows"]])
    print("Checks passing in every replica: "
          f"{sum(n == spec.replicas for n in band['pass_counts'].values())}"
          f"/{len(band['pass_counts'])}")
    for name, n_pass in sorted(band["pass_counts"].items()):
        if n_pass < spec.replicas:
            print(f"  {name}: {n_pass}/{spec.replicas}")


if __name__ == "__main__":
    main()
