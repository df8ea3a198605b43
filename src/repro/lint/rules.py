"""The per-module rule set: RL001–RL007.

Every rule enforces an invariant the study's evidentiary chain depends
on (see ``docs/LINT.md`` for the full rationale of each).  The common
theme is *machine-checked determinism*: the same root seed must always
yield the same synthetic Titan, or the calibration against the paper's
Figs. 2–21 and Observations 1–14 is meaningless.  The project-level
flow rules (RL100–RL103) live in :mod:`repro.lint.flow`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from repro.lint.context import ModuleContext
from repro.lint.findings import Edit, Finding, Fix, Severity
from repro.lint.registry import Rule, register

__all__ = [
    "AmbientRngRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "BuiltinHashRule",
    "UnknownXidRule",
    "MagicDurationRule",
    "UnusedSuppressionRule",
]


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# --------------------------------------------------------------------------
# RL001 — ambient RNG
# --------------------------------------------------------------------------

#: numpy.random members that are *types/seeding plumbing*, not ambient
#: draws; constructing these from an explicit SeedSequence is exactly
#: what rng.py does and is allowed anywhere.
_NP_RANDOM_ALLOWED: frozenset[str] = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


@register
class AmbientRngRule(Rule):
    """RL001: stochastic code must draw from an ``RngTree`` stream."""

    code = "RL001"
    name = "no-ambient-rng"
    severity = Severity.ERROR
    rationale = (
        "All randomness must flow from the single root seed through "
        "RngTree-derived numpy Generators. Module-level np.random.* "
        "calls, np.random.default_rng fallbacks and the stdlib random "
        "module create hidden streams that break seed-for-seed "
        "reproducibility of the calibrated simulation."
    )

    _exempt_modules = frozenset({"rng.py"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module_name in self._exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random":
                        yield self.finding(
                            ctx,
                            node.lineno,
                            node.col_offset,
                            "stdlib `random` imported; use a "
                            "numpy Generator from RngTree instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if not node.level and (node.module or "").split(".")[0] == "random":
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        "stdlib `random` imported; use a "
                        "numpy Generator from RngTree instead",
                    )
        for call in _walk_calls(ctx.tree):
            dotted = ctx.resolve(call.func)
            if dotted is None:
                continue
            if dotted.startswith("random."):
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"call to stdlib `{dotted}`; draw from an "
                    "RngTree-derived numpy Generator instead",
                )
            elif dotted.startswith("numpy.random."):
                member = dotted.removeprefix("numpy.random.")
                if member.split(".")[0] not in _NP_RANDOM_ALLOWED:
                    yield self.finding(
                        ctx,
                        call.lineno,
                        call.col_offset,
                        f"ambient `{dotted}` call; accept an explicit "
                        "numpy Generator derived from RngTree "
                        "(see repro/rng.py)",
                    )


# --------------------------------------------------------------------------
# RL002 — wall-clock reads in deterministic paths
# --------------------------------------------------------------------------

_WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Directories whose contents must be a pure function of (scenario, seed).
#: ``cache`` is included because a wall-clock or ambient-RNG read inside
#: the artifact store would break the content-address contract (same
#: inputs ⇒ same bytes) that the golden-trace suite enforces.
_DETERMINISTIC_DIRS: frozenset[str] = frozenset(
    {"sim", "faults", "workload", "telemetry", "chaos", "cache"}
)


@register
class WallClockRule(Rule):
    """RL002: no wall-clock reads inside sim/faults/workload/telemetry."""

    code = "RL002"
    name = "no-wall-clock"
    severity = Severity.ERROR
    rationale = (
        "Simulator timestamps are seconds since the fixed study epoch "
        "(2013-06-01); the calendar is closed so identical scenarios "
        "replay identically. A datetime.now()/time.time() read leaks "
        "host wall-clock into event streams and silently decalibrates "
        "every monthly aggregation."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dirs(_DETERMINISTIC_DIRS):
            return
        for call in _walk_calls(ctx.tree):
            dotted = ctx.resolve(call.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"wall-clock read `{dotted}()` in a deterministic "
                    "path; use simulator timestamps "
                    "(repro.units, seconds since the study epoch)",
                )


# --------------------------------------------------------------------------
# RL003 — unordered iteration
# --------------------------------------------------------------------------


@register
class UnorderedIterationRule(Rule):
    """RL003: no direct iteration over sets / ``dict.keys()``."""

    code = "RL003"
    name = "no-unordered-iteration"
    severity = Severity.WARNING
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "seeds; events or samples emitted from such loops can reorder "
        "between runs even with a fixed RNG seed. Iterate sorted(...) "
        "views so emission order is a pure function of the data."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                offender = self._unordered(it, ctx)
                if offender is not None:
                    yield self.finding(
                        ctx,
                        it.lineno,
                        it.col_offset,
                        f"iteration over {offender} has nondeterministic "
                        "order; wrap it in sorted(...)",
                    )

    def _unordered(self, node: ast.expr, ctx: ModuleContext) -> str | None:
        """Describe the unordered iterable, or None if the iter is safe."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            dotted = ctx.resolve(node.func)
            if dotted in ("set", "frozenset"):
                return f"`{dotted}(...)`"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "keys"
                and not node.args
            ):
                return "`.keys()`"
            # list(set(...)) etc. merely freezes the unordered order.
            if dotted in ("list", "tuple", "enumerate", "reversed") and node.args:
                return self._unordered(node.args[0], ctx)
        return None


# --------------------------------------------------------------------------
# RL004 — builtin hash() in key derivation
# --------------------------------------------------------------------------


@register
class BuiltinHashRule(Rule):
    """RL004: never derive stream/spawn keys with builtin ``hash()``."""

    code = "RL004"
    name = "no-builtin-hash"
    severity = Severity.ERROR
    rationale = (
        "str hashes are salted per process (PYTHONHASHSEED), so "
        "hash('faults.dbe') differs between runs and across parallel "
        "workers — named RNG streams derived from it would desynchronize. "
        "rng.py mandates zlib.crc32 for stable 32-bit name keys."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            if ctx.resolve(call.func) == "hash":
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    "builtin hash() is salted per process; use "
                    "zlib.crc32(name.encode()) for stream/spawn keys "
                    "(see repro/rng.py)",
                )


# --------------------------------------------------------------------------
# RL005 — unknown XID literals
# --------------------------------------------------------------------------


def _known_xid_codes() -> frozenset[int]:
    """Numeric XID codes present in the error taxonomy (Tables 1–2)."""
    from repro.errors import ErrorType  # taxonomy package export

    return frozenset(t.xid for t in ErrorType if t.xid is not None)


@register
class UnknownXidRule(Rule):
    """RL005: XID literals must exist in the error taxonomy."""

    code = "RL005"
    name = "xid-in-taxonomy"
    severity = Severity.ERROR
    rationale = (
        "The taxonomy (repro/errors) is the single source of truth for "
        "Tables 1-2. An XID literal outside that catalog is either a "
        "typo or an undeclared extension of the study's error classes; "
        "both silently corrupt classification-based figures."
    )

    def __init__(self) -> None:
        self._known = _known_xid_codes()

    def _bad_literal(self, node: ast.expr) -> int | None:
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
            and node.value not in self._known
        ):
            return node.value
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in _walk_calls(ctx.tree):
            dotted = ctx.resolve(call.func)
            if dotted is not None and dotted.split(".")[-1] == "by_xid" and call.args:
                bad = self._bad_literal(call.args[0])
                if bad is not None:
                    yield self.finding(
                        ctx,
                        call.args[0].lineno,
                        call.args[0].col_offset,
                        f"XID {bad} is not in the error taxonomy "
                        "(repro/errors); add it to the catalog or fix "
                        "the literal",
                    )
            for kw in call.keywords:
                if kw.arg == "xid":
                    bad = self._bad_literal(kw.value)
                    if bad is not None:
                        yield self.finding(
                            ctx,
                            kw.value.lineno,
                            kw.value.col_offset,
                            f"XID {bad} is not in the error taxonomy "
                            "(repro/errors)",
                        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            mentions_xid = any(
                (dn := ctx.resolve(s)) is not None
                and dn.split(".")[-1].lower() == "xid"
                for s in sides
            )
            if not mentions_xid:
                continue
            for side in sides:
                bad = self._bad_literal(side)
                if bad is not None:
                    yield self.finding(
                        ctx,
                        side.lineno,
                        side.col_offset,
                        f"comparison against XID {bad}, which is not in "
                        "the error taxonomy (repro/errors)",
                    )


# --------------------------------------------------------------------------
# RL006 — magic duration literals
# --------------------------------------------------------------------------

_DURATION_CONSTANTS: dict[float, str] = {
    3600.0: "HOUR",  # repro: noqa[RL006] — the rule's own catalog
    86400.0: "DAY",  # repro: noqa[RL006]
    604800.0: "WEEK",  # repro: noqa[RL006]
}


@register
class MagicDurationRule(Rule):
    """RL006: use ``repro.units`` helpers, not raw second counts."""

    code = "RL006"
    name = "no-magic-durations"
    severity = Severity.WARNING
    rationale = (
        "repro.units defines HOUR/DAY/WEEK once; raw 3600/86400 "
        "literals drift (3600 vs 3600.0 vs 60*60) and hide unit errors "
        "that corrupt MTBF and monthly-rate calibration."
    )

    _exempt_modules = frozenset({"units.py"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module_name in self._exempt_modules:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            helper = _DURATION_CONSTANTS.get(float(value))
            if helper is not None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"magic duration {value!r}; use repro.units.{helper}",
                    fix=self._fix(node, helper),
                )

    @staticmethod
    def _fix(node: ast.Constant, helper: str) -> Fix | None:
        """Replace the literal with the units helper, importing it.

        Only single-line literals are mechanically fixable (numeric
        constants always are in practice); anything else stays a
        report-only finding.
        """
        if node.end_lineno != node.lineno or node.end_col_offset is None:
            return None  # pragma: no cover - numeric literals are one-line
        return Fix(
            edits=(
                Edit(
                    node.lineno,
                    node.col_offset,
                    node.end_col_offset,
                    helper,
                ),
            ),
            ensure_import=f"repro.units:{helper}",
        )


# --------------------------------------------------------------------------
# RL007 — unused / unknown suppressions
# --------------------------------------------------------------------------


@register
class UnusedSuppressionRule(Rule):
    """RL007: every ``# repro: noqa`` must suppress something real.

    This rule is driven by the engine (it needs to know which markers
    were *used* after all other rules ran), so :meth:`check` is empty;
    the logic lives in :func:`repro.lint.noqa.suppression_hygiene`.
    """

    code = "RL007"
    name = "unused-suppression"
    severity = Severity.WARNING
    rationale = (
        "A `# repro: noqa[...]` that suppresses nothing, or names a "
        "rule code that does not exist, is a latent mute button: the "
        "next real violation on that line vanishes without review. "
        "Dead markers are findings themselves and are mechanically "
        "removed by --fix. (The unused check runs only on full-rule "
        "runs; under --select a marker for an unselected rule would "
        "look spuriously dead.)"
    )

    #: Consulted by the engine, not run per-module.
    engine_driven: ClassVar[bool] = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())
