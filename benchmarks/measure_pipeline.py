"""Measure cold vs warm end-to-end pipeline time → BENCH_pipeline.json.

Runs ``python -m repro observations`` three ways against a throwaway
artifact store:

* **cold** — ``--no-cache``: simulate + render + parse + analyze;
* **cold+persist** — first ``--cache-dir`` run: same work plus writing
  every dataset layer into the store;
* **warm** — second ``--cache-dir`` run: dataset layers and figures
  come back from the store.

It asserts the acceptance contract of the artifact cache (see
docs/PERFORMANCE.md): the warm run must be at least ``--min-speedup``
(default 3×) faster than the cold run **and** its analysis output must
be line-identical to the cold run's (the cache may only ever buy time,
never change an answer).  Exit code 0 iff both hold.

The cold run is profiled through :mod:`repro.perf`, so the emitted
document carries a per-stage wall-time breakdown (``stages_s``) next to
the end-to-end timings, plus a ``gate`` section: the smoke-scenario
cold budget that CI's perf gate enforces.  ``--gate`` re-runs just the
smoke cold pipeline and fails if its wall time regresses more than the
gate tolerance (default 25 %) over the committed budget.

A ``resume_s`` section measures the supervised runner's crash-recovery
overhead: a cold ``repro run``, the same run SIGKILLed mid-figures in a
real subprocess (a SIGKILL cannot be taken in-process), and the timed
``--resume`` that completes it — asserting the resumed document is
byte-identical to the cold one.  The resume should cost roughly one
warm run: journaled stages are verified, not recomputed.

A ``memory_s`` section measures peak RSS (``getrusage`` in fresh
subprocesses) of the console round-trip at scale 1 vs scale 4 and gates
it: quadrupling the event rate must not grow the peak past
``memory_s.max_ratio_allowed`` times the scale-1 peak.
``--memory-gate`` re-checks just that budget.

Usage::

    PYTHONPATH=src python benchmarks/measure_pipeline.py --days 45
    PYTHONPATH=src python benchmarks/measure_pipeline.py --full
    PYTHONPATH=src python benchmarks/measure_pipeline.py --gate

Results land in ``BENCH_pipeline.json`` at the repository root
(``--gate`` only reads it).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import perf  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402

#: Smoke-scenario definition the CI perf gate times (kept independent of
#: the benched scenario so a ``--full`` regeneration still carries a
#: cheap gate budget).
GATE_DAYS = 45.0
GATE_TOLERANCE = 0.25


def _timed(argv: list[str], *, profile: bool = False) -> tuple[float, int, str]:
    """(seconds, exit code, captured stdout) of one CLI invocation.

    With ``profile=True`` the run executes under an enabled
    :mod:`repro.perf` registry; read the breakdown from
    ``perf.snapshot()`` afterwards.
    """
    buf = io.StringIO()
    if profile:
        perf.reset()
        perf.enable()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
    finally:
        if profile:
            perf.disable()
    return time.perf_counter() - t0, rc, buf.getvalue()


def _stage_seconds() -> dict[str, float]:
    """Per-stage seconds from the last profiled run, rounded for JSON."""
    stages = perf.snapshot()["stages"]
    return {name: round(stat["seconds"], 3) for name, stat in stages.items()}


def _gate_argv(gate: dict) -> list[str]:
    return [
        "observations",
        "--days", str(gate["days"]),
        "--seed", str(gate["seed"]),
        "--no-cache",
    ]


def run_gate(out: Path) -> int:
    """CI perf gate: fail if the smoke cold run regresses past budget."""
    if not out.exists():
        print(f"gate: no committed benchmark at {out}", file=sys.stderr)
        return 2
    doc = json.loads(out.read_text())
    gate = doc.get("gate")
    if not gate:
        print(f"gate: {out} has no gate section; regenerate it",
              file=sys.stderr)
        return 2
    budget = float(gate["cold_budget_s"])
    tolerance = float(gate.get("tolerance", GATE_TOLERANCE))
    limit = budget * (1.0 + tolerance)
    cold_s, rc, _out_text = _timed(_gate_argv(gate), profile=True)
    print(f"gate: smoke cold {cold_s:.2f} s "
          f"(budget {budget:.2f} s, limit {limit:.2f} s, rc={rc})")
    if rc != 0:
        print("gate: FAIL (pipeline exited non-zero)")
        return 1
    if cold_s > limit:
        print(f"gate: FAIL (regressed {cold_s / budget - 1.0:+.0%}, "
              f"allowed +{tolerance:.0%}); per-stage breakdown:")
        for name, seconds in _stage_seconds().items():
            print(f"  {name:<20} {seconds:8.3f} s")
        return 1
    print("gate: OK")
    return 0


def _analysis_lines(text: str) -> list[str]:
    """Output lines minus the cache-status banner (path differs per run)."""
    return [l for l in text.splitlines() if not l.startswith("cache:")]


#: Journal barrier the benchmark SIGKILLs at: mid-figures, so the
#: resume both skips completed stages and computes the remainder.
_RESUME_KILL_BARRIER = 10


def _measure_resume(scenario: list[str], seed: int) -> dict:
    """Crash/resume overhead of the supervised runner.

    Cold ``repro run`` in-process, then the same run SIGKILLed at a
    journal barrier in a real subprocess (only a real process can take
    a SIGKILL), then a timed in-process ``--resume``; the resumed
    document must equal the cold document byte-for-byte.
    """
    import os
    import subprocess

    from repro.chaos.procfault import PROCFAULT_ENV

    with tempfile.TemporaryDirectory(prefix="repro-bench-resume-") as tmp:
        tmp_path = Path(tmp)
        base = ["run", *scenario, "--seed", str(seed), "--quiet"]
        cold_out = tmp_path / "cold.json"
        cold_s, cold_rc, _text = _timed([
            *base, "--cache-dir", str(tmp_path / "cold-cache"),
            "--out", str(cold_out),
        ])
        print(f"supervised cold run  {cold_s:8.2f} s  rc={cold_rc}")

        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        env.pop("REPRO_CACHE_DIR", None)
        env[PROCFAULT_ENV] = f"kill:{_RESUME_KILL_BARRIER}"
        crash_cache = tmp_path / "crash-cache"
        crash_out = tmp_path / "crash.json"
        crash_argv = [
            sys.executable, "-m", "repro", *base,
            "--cache-dir", str(crash_cache), "--out", str(crash_out),
        ]
        t0 = time.perf_counter()
        crashed = subprocess.run(crash_argv, env=env, capture_output=True)
        killed_s = time.perf_counter() - t0
        print(f"killed at barrier {_RESUME_KILL_BARRIER}  "
              f"{killed_s:8.2f} s  rc={crashed.returncode}")

        resume_s, resume_rc, _text = _timed([
            *base, "--cache-dir", str(crash_cache),
            "--out", str(crash_out), "--resume",
        ])
        print(f"resume after crash   {resume_s:8.2f} s  rc={resume_rc}")
        identical = (
            crash_out.exists()
            and crash_out.read_bytes() == cold_out.read_bytes()
        )
        return {
            "cold_run_s": round(cold_s, 3),
            "killed_at_barrier": _RESUME_KILL_BARRIER,
            "killed_run_s": round(killed_s, 3),
            "resume_s": round(resume_s, 3),
            "resume_identical": bool(identical),
            "pass": bool(
                cold_rc == 0
                and resume_rc == 0
                and crashed.returncode < 0  # died by signal, as planned
                and identical
            ),
        }


#: Window for the memory probes (kept at the smoke default so the
#: probes are cheap to regenerate).
_MEMORY_PROBE_DAYS = 45.0

#: Allowed peak-RSS growth from scale 1 to scale 4.  The console
#: round-trip streams in fixed-size batches; what grows is the
#: ground-truth event arrays (4x the fleet event rate), which stay well
#: under 2x total process RSS on top of the interpreter+numpy baseline.
#: Materializing the full log text is exactly what this budget exists
#: to catch.
_MEMORY_MAX_RATIO = 2.0


def _memory_probe_main(scale: float, seed: int) -> int:
    """Child-process body of one memory probe.

    Runs one scaled smoke scenario end to end (simulate → console
    round-trip → parsed events) and prints a JSON line with the
    process-lifetime peak RSS from ``getrusage`` — measured in a fresh
    interpreter so probes never share allocator high-water marks.
    """
    import resource

    from repro.sim.simulation import TitanSimulation
    from repro.sweep import SweepSpec
    from repro.sweep.grid import expand

    spec = SweepSpec(
        name="memprobe", base="smoke", seed=seed,
        days=_MEMORY_PROBE_DAYS, scales=(scale,),
    )
    point = expand(spec)[0]
    t0 = time.perf_counter()
    dataset = TitanSimulation(point.scenario).run()
    stats = dataset.parse_stats
    seconds = time.perf_counter() - t0
    print(json.dumps({
        "scale": scale,
        "lines": stats.total_lines,
        "events": len(dataset.parsed_events.time),
        "ru_maxrss_kib": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss,
        "seconds": round(seconds, 3),
    }))
    return 0


def _run_memory_probe(scale: float, seed: int) -> dict:
    """Run one probe in a fresh subprocess; return its JSON report."""
    import os
    import subprocess

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--memory-probe",
            "--probe-scale", str(scale),
            "--seed", str(seed),
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["ru_maxrss_mib"] = round(doc.pop("ru_maxrss_kib") / 1024.0, 1)
    return doc


def _measure_memory(seed: int) -> dict:
    """Peak RSS of the console round-trip vs scale.

    Two fresh-subprocess probes (scale 1 and 4); the scale-4 peak must
    stay within ``_MEMORY_MAX_RATIO`` of the scale-1 peak, i.e.
    quadrupling the event rate must not quadruple memory.
    """
    probes: dict[str, dict] = {}
    for scale in (1.0, 4.0):
        name = f"scale{scale:g}"
        probes[name] = _run_memory_probe(scale, seed)
        print(f"memory {name:<8} "
              f"{probes[name]['ru_maxrss_mib']:8.1f} MiB  "
              f"({probes[name]['lines']} lines, "
              f"{probes[name]['seconds']:.2f} s)")
    low = probes["scale1"]["ru_maxrss_mib"]
    high = probes["scale4"]["ru_maxrss_mib"]
    ratio = high / low if low > 0 else float("inf")
    return {
        "days": _MEMORY_PROBE_DAYS,
        "seed": seed,
        "probes": probes,
        "scale4_over_scale1": round(ratio, 2),
        "max_ratio_allowed": _MEMORY_MAX_RATIO,
        "pass": bool(ratio <= _MEMORY_MAX_RATIO),
        "check_with": "PYTHONPATH=src python benchmarks/measure_pipeline.py"
                      " --memory-gate",
    }


def run_memory_gate(out: Path) -> int:
    """CI memory gate: peak RSS must stay flat across scale.

    Re-runs the two probes and fails when the scale-4 / scale-1
    peak-RSS ratio exceeds the committed ``memory_s`` budget — the
    regression this guards is someone re-materializing the full log
    text somewhere inside the console round-trip.
    """
    if not out.exists():
        print(f"memory-gate: no committed benchmark at {out}",
              file=sys.stderr)
        return 2
    doc = json.loads(out.read_text())
    memory = doc.get("memory_s")
    if not memory:
        print(f"memory-gate: {out} has no memory_s section; regenerate it",
              file=sys.stderr)
        return 2
    seed = int(memory["seed"])
    max_ratio = float(memory["max_ratio_allowed"])
    low = _run_memory_probe(1.0, seed)
    high = _run_memory_probe(4.0, seed)
    ratio = (
        high["ru_maxrss_mib"] / low["ru_maxrss_mib"]
        if low["ru_maxrss_mib"] > 0 else float("inf")
    )
    print(f"memory-gate: scale-1 {low['ru_maxrss_mib']:.1f} MiB, "
          f"scale-4 {high['ru_maxrss_mib']:.1f} MiB "
          f"(ratio {ratio:.2f}, allowed {max_ratio:.2f})")
    if ratio > max_ratio:
        print("memory-gate: FAIL (peak RSS no longer flat "
              "across the scale axis)")
        return 1
    print("memory-gate: OK")
    return 0


#: Required cold/warm ratio for the sweep engine's warm rerun: with the
#: journal gone but the store intact, every point summary must come
#: back from its content address instead of re-running the physics.
_SWEEP_MIN_SPEEDUP = 5.0


def _measure_sweep(seed: int) -> dict:
    """Cold vs warm sensitivity-sweep wall time over a small grid.

    Cold: six scenario points simulated end to end.  Warm: journal
    deleted, store kept — the rerun must reassemble a byte-identical
    table from cached summaries at least ``_SWEEP_MIN_SPEEDUP`` times
    faster.  Both legs run serially so the ratio measures the cache,
    not process-pool startup.
    """
    from repro.cache.store import ArtifactStore
    from repro.sweep import RateMultipliers, SweepSpec, run_sweep

    spec = SweepSpec(
        name="bench",
        base="smoke",
        seed=seed,
        days=3.0,
        scales=(1.0, 2.0, 3.0),
        rates=(RateMultipliers(), RateMultipliers(dbe=2.0)),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-sweep-") as tmp:
        store = ArtifactStore(Path(tmp) / "store")
        t0 = time.perf_counter()
        cold = run_sweep(spec, store)
        cold_s = time.perf_counter() - t0
        print(f"sweep cold ({spec.n_points} pts) {cold_s:8.2f} s")
        Path(cold.journal_path).unlink()
        t0 = time.perf_counter()
        warm = run_sweep(spec, store)
        warm_s = time.perf_counter() - t0
        print(f"sweep warm rerun     {warm_s:8.2f} s")
    identical = warm.table_sha256 == cold.table_sha256
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    return {
        "n_points": spec.n_points,
        "cold_s": round(cold_s, 3),
        "warm_rerun_s": round(warm_s, 3),
        "speedup_cold_over_warm": round(speedup, 2),
        "min_speedup_required": _SWEEP_MIN_SPEEDUP,
        "table_identical": bool(identical),
        "pass": bool(
            identical
            and speedup >= _SWEEP_MIN_SPEEDUP
            and all(p.warm for p in warm.points)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="use the full 21-month paper scenario")
    ap.add_argument("--days", type=float, default=45.0,
                    help="window for the quick scenario (ignored with --full)")
    ap.add_argument("--seed", type=int, default=20131001)
    ap.add_argument("--min-speedup", type=float, default=3.0,
                    help="required cold/warm ratio (exit 1 below this)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    ap.add_argument("--gate", action="store_true",
                    help="CI mode: time the smoke cold run against the "
                         "committed gate budget instead of regenerating")
    ap.add_argument("--memory-gate", action="store_true",
                    help="CI mode: check peak RSS stays flat "
                         "across the scale axis (memory_s budget)")
    ap.add_argument("--memory-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe-scale", type=float, default=1.0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.memory_probe:
        return _memory_probe_main(args.probe_scale, args.seed)
    if args.memory_gate:
        return run_memory_gate(args.out)
    if args.gate:
        return run_gate(args.out)

    scenario = ["--full"] if args.full else ["--days", str(args.days)]
    base = ["observations", *scenario, "--seed", str(args.seed)]

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        store = ["--cache-dir", str(Path(tmp) / "store")]
        cold_s, cold_rc, cold_out = _timed([*base, "--no-cache"], profile=True)
        stages_s = _stage_seconds()
        print(f"cold (no cache)      {cold_s:8.2f} s  rc={cold_rc}")
        persist_s, persist_rc, persist_out = _timed([*base, *store])
        print(f"cold + persist       {persist_s:8.2f} s  rc={persist_rc}")
        warm_s, warm_rc, warm_out = _timed([*base, *store])
        print(f"warm (store hit)     {warm_s:8.2f} s  rc={warm_rc}")

    # The gate budget is always the smoke scenario: reuse the cold run
    # when that is what we just timed, otherwise time it separately so a
    # --full regeneration still refreshes the CI budget.
    if not args.full and args.days == GATE_DAYS:
        gate_cold_s = cold_s
    else:
        gate = {"days": GATE_DAYS, "seed": args.seed}
        gate_cold_s, _gate_rc, _gate_out = _timed(_gate_argv(gate))
        print(f"gate smoke cold      {gate_cold_s:8.2f} s")

    resume = _measure_resume(scenario, args.seed)
    sweep = _measure_sweep(args.seed)
    memory = _measure_memory(args.seed)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    identical = (
        _analysis_lines(cold_out)
        == _analysis_lines(persist_out)
        == _analysis_lines(warm_out)
    ) and cold_rc == persist_rc == warm_rc
    ok = (
        identical
        and speedup >= args.min_speedup
        and resume["pass"]
        and sweep["pass"]
        and memory["pass"]
    )

    doc = {
        "command": "observations",
        "scenario": {
            "full": bool(args.full),
            "days": None if args.full else args.days,
            "seed": args.seed,
        },
        "timings_s": {
            "cold_no_cache": round(cold_s, 3),
            "cold_persist": round(persist_s, 3),
            "warm": round(warm_s, 3),
        },
        "stages_s": stages_s,
        "gate": {
            "days": GATE_DAYS,
            "seed": args.seed,
            "cold_budget_s": round(gate_cold_s, 3),
            "tolerance": GATE_TOLERANCE,
            "check_with": "PYTHONPATH=src python benchmarks/measure_pipeline.py"
                          " --gate",
        },
        "resume_s": resume,
        "sweep_s": sweep,
        "memory_s": memory,
        "speedup_cold_over_warm": round(speedup, 2),
        "min_speedup_required": args.min_speedup,
        "outputs_identical": identical,
        "pass": ok,
        "regenerate_with": "PYTHONPATH=src python benchmarks/measure_pipeline.py"
                           + (" --full" if args.full else f" --days {args.days}"),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"speedup {speedup:.1f}x (need >= {args.min_speedup}x), "
          f"outputs identical: {identical}, "
          f"resume ok: {resume['pass']}, "
          f"sweep warm {sweep['speedup_cold_over_warm']:.1f}x "
          f"(need >= {_SWEEP_MIN_SPEEDUP}x), "
          f"peak RSS x{memory['scale4_over_scale1']:.2f} "
          f"at scale 4 (cap x{_MEMORY_MAX_RATIO}) -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
