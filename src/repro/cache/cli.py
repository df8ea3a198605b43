"""The ``python -m repro cache`` maintenance subcommand.

Actions
-------
``info``   inventory: artifact count, bytes by kind, dataset keys
``clear``  remove every artifact (and stale staging files)
``evict``  drop least-recently-modified artifacts to fit a byte budget

The store is the one every command uses: ``--cache-dir``, else
``$REPRO_CACHE_DIR``; with neither, or with a path that is not a
directory, the command exits 2 and touches nothing.  No action creates
anything, so a mistyped path is reported, not made.  Exit codes follow
the CLI convention: 0 on success, 2 on bad invocation.  ``--json``
emits machine-readable output for tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["add_cache_arguments", "cmd_cache"]


def _non_negative_finite(text: str) -> float:
    """Argument type of ``--max-mb``."""
    value = float(text)
    if not 0.0 <= value < float("inf"):  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a non-negative, finite number, got {text!r}"
        )
    return value


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``cache`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "action",
        choices=("info", "clear", "evict"),
        help="maintenance action to run against the artifact store",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--max-mb",
        type=_non_negative_finite,
        default=None,
        help="evict: byte budget the store must fit after eviction",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of a table",
    )


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:,.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


def cmd_cache(args: argparse.Namespace) -> int:
    """Run one maintenance action; returns the process exit code."""
    from repro.cli import _store

    store = _store(args)
    if store is None:
        print(
            "error: repro cache needs an artifact store; "
            "pass --cache-dir or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    if not store.root.is_dir():
        print(f"error: no artifact store at {store.root}", file=sys.stderr)
        return 2

    if args.action == "info":
        info = store.info()
        if args.json:
            print(json.dumps(
                {
                    "root": info.root,
                    "n_artifacts": info.n_artifacts,
                    "total_bytes": info.total_bytes,
                    "by_kind": dict(sorted(info.by_kind.items())),
                    "datasets": list(info.datasets),
                },
                indent=2,
                sort_keys=True,
            ))
            return 0
        print(f"cache root   {info.root}")
        print(f"artifacts    {info.n_artifacts}")
        print(f"total bytes  {_human_bytes(info.total_bytes)}")
        for kind in sorted(info.by_kind):
            print(f"  {kind:<8} {_human_bytes(info.by_kind[kind])}")
        print(f"datasets     {len(info.datasets)}")
        for dkey in info.datasets:
            print(f"  {dkey}")
        return 0

    if args.action == "clear":
        removed = store.clear()
        if args.json:
            print(json.dumps({"removed": removed}))
        else:
            print(f"removed {removed} artifact(s) from {store.root}")
        return 0

    # evict
    if args.max_mb is None:
        print("error: evict requires --max-mb >= 0")
        return 2
    budget = int(args.max_mb * 1024 * 1024)
    evicted = store.evict(budget)
    if args.json:
        print(json.dumps({
            "evicted": evicted,
            "max_bytes": budget,
            "total_bytes": store.total_bytes(),
        }))
    else:
        print(f"evicted {len(evicted)} artifact(s); store now "
              f"{_human_bytes(store.total_bytes())} (budget "
              f"{_human_bytes(budget)})")
        for key in evicted:
            print(f"  {key}")
    return 0
