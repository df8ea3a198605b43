"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``      run a scenario, write the console log (and optionally
                  the nvidia-smi fleet table) to disk; ``--chaos-rate``
                  corrupts the rendered log before writing
``figures``       regenerate the paper's tables/figures from a scenario
``observations``  check every Observation 1–14 and print a scorecard
``fleet-health``  the operator triage summary
``corrupt``       deterministically corrupt an existing log file
``degradation``   corruption sweep: at what damage level do findings flip?
``lint``          AST determinism/invariant linter over the source tree
``cache``         artifact-store maintenance (``info``/``clear``/``evict``)
``profile``       per-stage wall-time breakdown of one cold pipeline run
``run``           crash-safe supervised pipeline run: every stage is
                  journaled into the artifact store; ``--resume``
                  continues a killed/interrupted run byte-identically
``chaos-run``     process-fault sweep: kill/tear/ENOSPC a journaled
                  command (``run`` by default, or ``sweep run``) in a
                  real subprocess at every journal barrier and prove the
                  resume reproduces the cold document byte-for-byte

Every analysis command accepts ``--seed`` and ``--cache-dir``: with a
cache directory (or ``$REPRO_CACHE_DIR``), the simulated dataset's
telemetry layers are written to a content-addressed artifact store on
the first (cold) run and reused on every later (warm) run — *collect
once, analyze many times*, like the paper's own workflow.  ``--no-cache``
forces a cold run even when the environment variable is set.

The CLI is a thin veneer over the library; each command maps onto the
public API one-to-one so scripts can graduate to imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _scenario(args) -> "Scenario":
    from repro.sim import Scenario

    if getattr(args, "full", False):
        return Scenario.paper(seed=args.seed)
    return Scenario.smoke(seed=args.seed, days=args.days)


def _positive_finite(text: str) -> float:
    """Argument type of ``--days`` and ``sweep run --timeout``."""
    value = float(text)
    if not 0.0 < value < float("inf"):  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text!r}"
        )
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=20131001)
    p.add_argument("--full", action="store_true",
                   help="run the full 21-month paper scenario")
    p.add_argument("--days", type=_positive_finite, default=60.0,
                   help="window length for the default quick scenario")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="content-addressed artifact store to reuse "
                        "simulated telemetry from (default: "
                        "$REPRO_CACHE_DIR if set, else caching is off)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir/$REPRO_CACHE_DIR and run cold")


def _store(args) -> "ArtifactStore | None":
    """The artifact store selected by ``--cache-dir``/environment.

    Caching is opt-in: ``--no-cache`` wins, an explicit ``--cache-dir``
    is honored, and otherwise ``$REPRO_CACHE_DIR`` enables it.  With no
    signal at all the pipeline runs cold and writes nothing.
    """
    if getattr(args, "no_cache", False):
        return None
    from repro.cache import ArtifactStore

    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        return ArtifactStore(cache_dir)
    import os

    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ArtifactStore(env) if env else None


def _load_dataset(args, *, require_ground_truth: bool = False):
    """Cache-aware dataset front door shared by the analysis commands."""
    from repro.cache import load_or_simulate

    store = _store(args)
    dataset, warm = load_or_simulate(
        _scenario(args), store, require_ground_truth=require_ground_truth
    )
    if store is not None:
        state = "hit (warm)" if warm else "miss (simulated, persisted)"
        print(f"cache: {state} [{store.root}]")
    return dataset, store


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Titan GPU reliability study — simulate and analyze",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario, dump artifacts")
    _add_common(p_sim)
    p_sim.add_argument("--log-out", type=Path, default=Path("console.log"))
    p_sim.add_argument("--nvsmi-out", type=Path, default=None,
                       help="also write the fleet nvidia-smi table (CSV)")
    p_sim.add_argument("--chaos-rate", type=float, default=0.0,
                       help="corrupt this fraction of console lines before "
                            "writing (deterministic; uses the scenario seed)")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    _add_common(p_fig)
    p_fig.add_argument("--outdir", type=Path, default=None,
                       help="write figure CSVs here as well")

    p_obs = sub.add_parser("observations", help="Observation 1-14 scorecard")
    _add_common(p_obs)

    p_health = sub.add_parser("fleet-health", help="operator triage summary")
    _add_common(p_health)
    p_health.add_argument("--top", type=int, default=10)

    p_cal = sub.add_parser(
        "calibration", help="validate measured statistics against RateConfig"
    )
    _add_common(p_cal)

    p_cor = sub.add_parser(
        "corrupt", help="deterministically corrupt a telemetry log file"
    )
    p_cor.add_argument("log", type=Path, help="input console-log text file")
    p_cor.add_argument("--out", type=Path, default=None,
                       help="output path (default: <log>.corrupt)")
    p_cor.add_argument("--rate", type=float, default=0.01,
                       help="total per-line corruption rate (spread "
                            "uniformly over the fault modes)")
    p_cor.add_argument("--seed", type=int, default=20131001)
    p_cor.add_argument("--outages", type=int, default=0,
                       help="also drop this many SMW-outage windows")
    p_cor.add_argument("--outage-hours", type=float, default=6.0,
                       help="mean outage duration in hours")

    p_deg = sub.add_parser(
        "degradation",
        help="corruption sweep: rerun the scorecard on damaged telemetry",
    )
    _add_common(p_deg)
    p_deg.add_argument("--levels", type=str, default="0,0.001,0.01,0.05,0.2",
                       help="comma-separated corruption levels to sweep")
    p_deg.add_argument("--budget", type=float, default=0.05,
                       help="parser error budget (fraction of corrupt lines)")
    p_deg.add_argument("--fail-level", type=float, default=None,
                       help="exit non-zero if any check flips at a level "
                            "<= this threshold")

    p_lint = sub.add_parser(
        "lint", help="run the determinism & invariant linter "
        "(RL001-RL007 local rules, RL100-RL103 project flow rules)"
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)

    p_cache = sub.add_parser(
        "cache", help="artifact-store maintenance: info / clear / evict"
    )
    from repro.cache.cli import add_cache_arguments

    add_cache_arguments(p_cache)

    p_prof = sub.add_parser(
        "profile", help="per-stage wall-time breakdown of a cold pipeline run"
    )
    _add_common(p_prof)
    from repro.perf.cli import add_profile_arguments

    add_profile_arguments(p_prof)

    from repro.supervise.cli import add_chaos_run_arguments, add_run_arguments

    p_run = sub.add_parser(
        "run", help="journaled, crash-safe pipeline run (supports --resume)"
    )
    add_run_arguments(p_run)

    p_chaos_run = sub.add_parser(
        "chaos-run",
        help="sweep process faults over a journaled command's barriers "
             "and verify byte-identical resume",
    )
    add_chaos_run_arguments(p_chaos_run)

    from repro.sweep.cli import add_sweep_arguments

    p_sweep = sub.add_parser(
        "sweep",
        help="sharded multi-scenario sensitivity sweep "
             "(run/status/report; crash-safe, resumable)",
    )
    add_sweep_arguments(p_sweep)
    return parser


def cmd_simulate(args) -> int:
    dataset, _store_ = _load_dataset(args)
    if args.chaos_rate > 0.0:
        from repro.chaos import ChaosConfig, CorruptionInjector

        injector = CorruptionInjector(
            ChaosConfig.uniform(args.chaos_rate), seed=dataset.scenario.seed
        )
        result = injector.corrupt_text(dataset.console_text)
        dataset = dataset.with_console_text(result.text)
        print(f"chaos: corrupted {result.total_corrupted:,} of "
              f"{result.n_lines_in:,} lines at rate {args.chaos_rate}")
    n_lines = 0
    with args.log_out.open("w", encoding="utf-8") as fh:
        for line in dataset.console_lines():
            fh.write(line + "\n")
            n_lines += 1
    print(f"wrote {args.log_out} ({n_lines:,} lines)")
    if args.nvsmi_out is not None:
        from repro.viz.csvout import write_rows_csv

        table = dataset.nvsmi_table
        rows = [
            [slot, int(table["sbe_total"][slot]), int(table["dbe_total"][slot]),
             int(table["retired_pages"][slot]),
             f"{table['temperature_c'][slot]:.1f}"]
            for slot in range(dataset.machine.n_gpus)
        ]
        write_rows_csv(
            args.nvsmi_out,
            ["slot", "sbe", "dbe", "retired_pages", "temp_c"],
            rows,
        )
        print(f"wrote {args.nvsmi_out}")
    return 0


def cmd_figures(args) -> int:
    from repro.core import TitanStudy
    from repro.core.report import render_monthly_series, render_table
    from repro.units import month_labels

    dataset, store = _load_dataset(args)
    study = TitanStudy(dataset, store=store)
    labels = month_labels()
    print(render_table(["GPU Error", "XID"], study.table1()))
    fig2 = study.fig2()
    print()
    print(render_monthly_series(labels, fig2.counts, "Fig. 2 - DBEs/month"))
    if fig2.mtbf_hours is not None:
        print(f"MTBF {fig2.mtbf_hours:.1f} h")
    fig12 = study.fig12()
    print(f"Fig. 12: {fig12.n_unfiltered:,} raw XID 13 -> "
          f"{fig12.n_filtered} filtered")
    report = study.figs16_19()
    print(render_table(
        ["metric", "spearman", "pearson"],
        [[m, f"{c.spearman:+.2f}", f"{c.pearson:+.2f}"]
         for m, c in report.all_jobs.items()],
    ))
    if args.outdir is not None:
        from repro.viz.csvout import write_series_csv

        args.outdir.mkdir(parents=True, exist_ok=True)
        write_series_csv(args.outdir / "fig02.csv", labels, fig2.counts)
        print(f"CSV data in {args.outdir}")
    return 0


def cmd_observations(args) -> int:
    """Score the observation suite; non-zero exit if any claim fails.

    The check logic lives in :func:`repro.core.observation_scorecard`
    so the chaos degradation experiment reruns exactly the same suite.
    """
    from repro.core import TitanStudy, observation_scorecard

    dataset, store = _load_dataset(args)
    checks = observation_scorecard(TitanStudy(dataset, store=store))

    width = max(len(check.name) for check in checks)
    failed = 0
    for check in checks:
        suffix = f"  ({check.detail})" if check.detail and not check.ok else ""
        print(f"  {check.name:<{width}}  "
              f"{'PASS' if check.ok else 'FAIL'}{suffix}")
        failed += 0 if check.ok else 1
    print(f"\n{len(checks) - failed}/{len(checks)} observation checks pass")
    return 1 if failed else 0


def cmd_corrupt(args) -> int:
    """Deterministically corrupt a telemetry log file on disk."""
    from repro.chaos import ChaosConfig, CorruptionInjector
    from repro.units import HOUR

    if not args.log.exists():
        print(f"error: no such file: {args.log}", file=sys.stderr)
        return 2
    config = ChaosConfig.uniform(args.rate)
    if args.outages > 0:
        import dataclasses

        config = dataclasses.replace(
            config,
            n_outages=args.outages,
            outage_duration_s=args.outage_hours * HOUR,
        )
    injector = CorruptionInjector(config, seed=args.seed)
    result = injector.corrupt_text(args.log.read_text())
    out = args.out if args.out is not None else args.log.with_suffix(
        args.log.suffix + ".corrupt"
    )
    out.write_text(result.text)
    print(f"wrote {out} ({result.n_lines_out:,} lines, "
          f"{result.total_corrupted:,} corrupted of {result.n_lines_in:,})")
    for mode in sorted(result.counts):
        print(f"  {mode:<12} {result.counts[mode]:,}")
    return 0


def cmd_degradation(args) -> int:
    """Run the graceful-degradation sweep and print the flip table."""
    from repro.chaos import run_degradation

    levels = tuple(
        float(level) for level in args.levels.split(",") if level.strip()
    )
    curve = run_degradation(
        _scenario(args),
        levels=levels,
        seed=args.seed,
        error_budget=args.budget,
        store=_store(args),
    )
    n_checks = len(curve.baseline.checks)
    print(f"{'level':>8}  {'pass':>5}  {'degraded':>8}  {'corrupt':>8}  "
          f"{'coverage':>8}  {'mtbf_h':>8}  flips")
    for point in curve.points:
        flips = curve.flips_at(point)
        mtbf = "-" if point.mtbf_hours is None else f"{point.mtbf_hours:.1f}"
        print(f"{point.level:>8.3%}  {point.n_pass:>2}/{n_checks:<2}  "
              f"{'yes' if point.degraded else 'no':>8}  "
              f"{point.corrupt_fraction:>8.3%}  "
              f"{point.coverage_fraction:>8.1%}  {mtbf:>8}  "
              f"{', '.join(flips) if flips else '-'}")
    print(f"\nscorecard stable through {curve.max_stable_level():.3%} "
          "line corruption")
    if args.fail_level is not None:
        bad = [
            point
            for point in curve.points
            if point.level <= args.fail_level and curve.flips_at(point)
        ]
        if bad:
            worst = min(point.level for point in bad)
            print(f"FAIL: scorecard flipped at level {worst:.3%} "
                  f"(<= --fail-level {args.fail_level:.3%})")
            return 1
        print(f"OK: no flips at levels <= {args.fail_level:.3%}")
    return 0


def cmd_fleet_health(args) -> int:
    from repro.core.offenders import offender_slots
    from repro.core.report import render_table

    # Needs the fleet's ground-truth ledgers for the anomaly check, so
    # this always simulates — but still persists the telemetry layers
    # for the observable-only commands to warm-load later.
    dataset, _store_ = _load_dataset(args, require_ground_truth=True)
    table = dataset.nvsmi_table
    machine = dataset.machine
    offenders = offender_slots(table["sbe_total"], args.top)
    print(render_table(
        ["node", "sbe", "dbe", "retired"],
        [
            [machine.cname(int(s)), int(table["sbe_total"][s]),
             int(table["dbe_total"][s]), int(table["retired_pages"][s])]
            for s in offenders
        ],
    ))
    anomalies = dataset.nvsmi.inconsistent_cards()
    print(f"ledger anomalies: {len(anomalies)}; "
          f"cards with SBEs: {int(np.count_nonzero(table['sbe_total']))}")
    return 0


def cmd_calibration(args) -> int:
    """Run the calibration self-check; non-zero exit on any failure."""
    from repro.faults.validation import validate_calibration

    # Calibration validates measured statistics against the injector's
    # ground truth, which is never cached: always a real simulation.
    dataset, _store_ = _load_dataset(args, require_ground_truth=True)
    checks = validate_calibration(dataset)
    failed = 0
    for check in checks:
        print(f"  {check.render()}")
        failed += 0 if check.ok else 1
    print(f"\n{len(checks) - failed}/{len(checks)} calibration checks pass")
    return 1 if failed else 0


def cmd_lint(args) -> int:
    """Run the AST determinism/invariant linter (see :mod:`repro.lint`)."""
    from repro.lint.cli import cmd_lint as _cmd_lint

    return _cmd_lint(args)


def cmd_cache(args) -> int:
    """Artifact-store maintenance (see :mod:`repro.cache.cli`)."""
    from repro.cache.cli import cmd_cache as _cmd_cache

    return _cmd_cache(args)


def cmd_profile(args) -> int:
    """Stage-level pipeline profiling (see :mod:`repro.perf.cli`)."""
    from repro.perf.cli import cmd_profile as _cmd_profile

    return _cmd_profile(args)


def cmd_run(args) -> int:
    """Supervised, journaled pipeline run (see :mod:`repro.supervise.cli`)."""
    from repro.supervise.cli import cmd_run as _cmd_run

    return _cmd_run(args)


def cmd_chaos_run(args) -> int:
    """Process-fault sweep over journal barriers (see :mod:`repro.supervise.cli`)."""
    from repro.supervise.cli import cmd_chaos_run as _cmd_chaos_run

    return _cmd_chaos_run(args)


def cmd_sweep(args) -> int:
    """Multi-scenario sensitivity sweep (see :mod:`repro.sweep.cli`)."""
    from repro.sweep.cli import cmd_sweep as _cmd_sweep

    return _cmd_sweep(args)


_COMMANDS = {
    "simulate": cmd_simulate,
    "figures": cmd_figures,
    "observations": cmd_observations,
    "fleet-health": cmd_fleet_health,
    "calibration": cmd_calibration,
    "corrupt": cmd_corrupt,
    "degradation": cmd_degradation,
    "lint": cmd_lint,
    "cache": cmd_cache,
    "profile": cmd_profile,
    "run": cmd_run,
    "chaos-run": cmd_chaos_run,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-report; swap stdout
        # for devnull so interpreter shutdown doesn't traceback too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
