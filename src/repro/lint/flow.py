"""Flow-sensitive project rules: RL100–RL103.

These rules run on the :class:`~repro.lint.project.ProjectContext`
(symbol tables + import graph + approximate call graph) instead of one
module at a time, and they machine-check the three guarantees that were
previously enforced only at runtime:

* golden-trace stability — every random draw traces to the root seed
  (RL100) and the pipeline epoch moves with the golden-relevant code
  surface (RL103);
* pool retries — work submitted to ``repro.parallel`` survives the
  spawn/pickle boundary (RL101);
* cache equivalence — cache-key fingerprinting is a pure function of
  its inputs (RL102).

Like the local rules, the analysis is deliberately syntactic and an
under-approximation: it follows names, signatures and direct calls, not
dynamic dispatch.  A clean report is therefore necessary, not
sufficient — the golden traces remain the ground truth; these rules
catch the regressions *before* a golden rebuild does.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Callable, Iterator
from typing import Any

from repro.lint.findings import Finding, Severity
from repro.lint.project import (
    FuncSymbol,
    ModuleSymbols,
    ProjectContext,
    ProjectRule,
)
from repro.lint.registry import register
from repro.lint.rules import _DETERMINISTIC_DIRS, _WALL_CLOCK_CALLS

__all__ = [
    "SeedFlowRule",
    "SpawnSafetyRule",
    "CacheKeyPurityRule",
    "EpochDisciplineRule",
    "surface_digest",
]

#: numpy Generator draw methods — calling one of these *consumes*
#: randomness, so the receiver must trace back to the seed tree.
_DRAW_METHODS: frozenset[str] = frozenset(
    {
        "random",
        "standard_normal",
        "normal",
        "lognormal",
        "poisson",
        "choice",
        "integers",
        "exponential",
        "uniform",
        "shuffle",
        "permutation",
        "permuted",
        "gamma",
        "beta",
        "binomial",
        "geometric",
        "weibull",
        "pareto",
        "zipf",
        "triangular",
        "chisquare",
        "multinomial",
        "multivariate_normal",
        "standard_exponential",
        "standard_gamma",
    }
)

#: Parameter names recognised as explicit rng threading.
_RNG_PARAM_NAMES: frozenset[str] = frozenset(
    {"rng", "rngs", "rng_tree", "rngtree", "generator", "gen"}
)

#: RngTree methods whose result is a legitimately derived stream.
_DERIVE_METHODS: frozenset[str] = frozenset(
    {"generator", "fresh_generator", "child", "spawn_shards", "sequence"}
)


_Resolver = Callable[[ast.AST], "str | None"]
_CallOracle = Callable[[ast.expr], bool]


def _is_derivation(
    node: ast.expr,
    resolve: _Resolver,
    returns_derivation: _CallOracle | None = None,
) -> bool:
    """Does this expression contain an RngTree/SeedSequence derivation?

    ``returns_derivation``, when given, answers whether a call to a
    *project* function produces a derived generator (e.g. a module-level
    ``def rng(): return RngTree(2).fresh_generator("stats")`` helper),
    so seed flow is followed through one level of indirection per hop.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if (
            isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _DERIVE_METHODS
        ):
            return True
        dotted = resolve(sub.func)
        if dotted is not None:
            base = dotted.split(".")[-1]
            if base in ("RngTree", "default_rng", "Generator", "SeedSequence"):
                return True
        if returns_derivation is not None and returns_derivation(sub.func):
            return True
    return False


class _DerivationOracle:
    """Memoized "does this project function return a derived generator".

    Follows the approximate call graph through helper functions (with a
    cycle guard), so ``g = make_rng()`` taints ``g`` as *derived* when
    ``make_rng`` demonstrably returns an RngTree-derived stream.
    """

    def __init__(self, project: ProjectContext) -> None:
        self._project = project
        self._memo: dict[tuple[str, str], bool] = {}

    def for_module(self, mod: str) -> _CallOracle:
        return lambda func: self._call_returns_derivation(mod, func)

    def _call_returns_derivation(self, mod: str, func: ast.AST) -> bool:
        if not isinstance(func, ast.expr):
            return False
        resolved = self._project.resolve_function(mod, func)
        if resolved is None:
            return False
        owner, _, target = resolved
        return self._returns_derivation(owner, target)

    def _returns_derivation(self, owner: str, target: FuncSymbol) -> bool:
        key = (owner, target.qualname)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = False  # cycle guard
        resolve = self._project.modules[owner].resolve
        result = any(
            isinstance(stmt, ast.Return)
            and stmt.value is not None
            and _is_derivation(
                stmt.value, resolve, self.for_module(owner)
            )
            for stmt in _iter_scope_stmts(target.node)
        )
        self._memo[key] = result
        return result


class _FunctionScope:
    """Names visible inside one function: params, derived and opaque locals."""

    def __init__(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        inherited_params: frozenset[str],
        resolve: _Resolver,
        returns_derivation: _CallOracle | None = None,
    ) -> None:
        self._returns_derivation = returns_derivation
        a = node.args
        own = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if a.vararg is not None:
            own.append(a.vararg.arg)
        if a.kwarg is not None:
            own.append(a.kwarg.arg)
        self.params: frozenset[str] = inherited_params | frozenset(own)
        self.derived: set[str] = set()
        self.opaque: set[str] = set()
        self.nested_defs: set[str] = set()
        self.body_nodes: list[ast.stmt] = list(node.body)
        self._classify(node, resolve)

    def _classify(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        resolve: _Resolver,
    ) -> None:
        for stmt in _iter_scope_stmts(fn):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.nested_defs.add(stmt.name)
                continue
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                targets, value = [stmt.target], stmt.iter
            if value is None:
                continue
            derived = _is_derivation(
                value, resolve, self._returns_derivation
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        (self.derived if derived else self.opaque).add(
                            leaf.id
                        )


def _iter_scope_stmts(fn: ast.AST) -> Iterator[ast.stmt]:
    """Statements of one function scope, in source order.

    Nested def/class *statements* are yielded (their decorators and
    default expressions evaluate in this scope) but their bodies are
    not entered — those belong to the nested scope.
    """
    stack: list[ast.stmt] = list(reversed(list(getattr(fn, "body", []))))
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        children = [
            c for c in ast.iter_child_nodes(stmt) if isinstance(c, ast.stmt)
        ]
        stack.extend(reversed(children))


def _iter_scope_exprs(fn: ast.AST) -> Iterator[ast.expr]:
    """Expressions evaluated in one function scope (not in nested defs)."""
    for stmt in _iter_scope_stmts(fn):
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                continue
            for sub in ast.walk(child):
                if isinstance(sub, ast.expr):
                    yield sub


def _scope_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Call expressions belonging to one function scope."""
    for expr in _iter_scope_exprs(fn):
        if isinstance(expr, ast.Call):
            yield expr


def _functions_of(
    table: ModuleSymbols,
) -> Iterator[FuncSymbol]:
    for fn in table.functions.values():
        yield fn
    for cls in table.classes.values():
        yield from cls.methods.values()


# --------------------------------------------------------------------------
# RL100 — seed-flow taint
# --------------------------------------------------------------------------


@register
class SeedFlowRule(ProjectRule):
    """RL100: every random draw must trace to an explicit rng path."""

    code = "RL100"
    name = "seed-flow"
    severity = Severity.ERROR
    rationale = (
        "Every stochastic call site must reach its numpy Generator "
        "through an explicit rng=/RngTree path from the root "
        "SeedSequence. A draw from a module-level generator, an opaque "
        "local, or a call that drops a required rng parameter creates "
        "a second entropy root that the golden traces cannot see until "
        "they break."
    )

    _exempt_modules = frozenset({"rng.py"})

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        oracle = _DerivationOracle(project)
        for mod in sorted(project.modules):
            ctx = project.modules[mod]
            if ctx.module_name in self._exempt_modules:
                continue
            table = project.symbols[mod]
            skip_names = (
                set(ctx.aliases)
                | set(table.functions)
                | set(table.classes)
            )
            for fn in _functions_of(table):
                yield from self._check_function(
                    project, mod, fn, skip_names, oracle
                )
            yield from self._check_module_scope(project, mod, skip_names)
        yield from self._check_call_chain(project)

    def _check_function(
        self,
        project: ProjectContext,
        mod: str,
        fn: FuncSymbol,
        skip_names: set[str],
        oracle: _DerivationOracle,
    ) -> Iterator[Finding]:
        ctx = project.modules[mod]
        derives = oracle.for_module(mod)
        scope = _FunctionScope(fn.node, frozenset(), ctx.resolve, derives)
        # Nested defs inherit the parent's parameters (an rng closed
        # over from an explicit parameter is still explicit threading).
        yield from self._check_scope(
            project, mod, fn.qualname, fn.node, scope, skip_names
        )
        for stmt in _iter_scope_stmts(fn.node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = _FunctionScope(
                    stmt, scope.params, ctx.resolve, derives
                )
                yield from self._check_scope(
                    project,
                    mod,
                    f"{fn.qualname}.{stmt.name}",
                    stmt,
                    nested,
                    skip_names,
                )

    def _check_scope(
        self,
        project: ProjectContext,
        mod: str,
        qualname: str,
        node: ast.AST,
        scope: _FunctionScope,
        skip_names: set[str],
    ) -> Iterator[Finding]:
        ctx = project.modules[mod]
        table = project.symbols[mod]
        for call in _scope_calls(node):
            if not (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _DRAW_METHODS
                and isinstance(call.func.value, ast.Name)
            ):
                continue
            recv = call.func.value.id
            if recv in skip_names or recv in scope.nested_defs:
                continue
            if recv in scope.params or recv in scope.derived:
                continue
            if recv in scope.opaque:
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"`{qualname}` draws `{recv}.{call.func.attr}()` from "
                    f"a local that is not derived from an rng parameter "
                    "or an RngTree stream; thread an explicit rng= "
                    "through the signature chain",
                )
            elif recv in table.assigned_names:
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"`{qualname}` draws from module-level generator "
                    f"`{recv}`; module globals are hidden entropy roots "
                    "— accept an explicit rng parameter instead",
                )

    def _check_module_scope(
        self,
        project: ProjectContext,
        mod: str,
        skip_names: set[str],
    ) -> Iterator[Finding]:
        ctx = project.modules[mod]
        for site in project.calls.get((mod, ""), ()):
            call = site.node
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _DRAW_METHODS
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id not in skip_names
            ):
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"randomness drawn at import time "
                    f"(`{call.func.value.id}.{call.func.attr}()` at module "
                    "scope); draws must happen inside functions that "
                    "receive an explicit rng",
                )

    def _check_call_chain(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        """Cross-module: calls must thread required rng parameters."""
        for (mod, scope_name), sites in sorted(project.calls.items()):
            ctx = project.modules[mod]
            if ctx.module_name in self._exempt_modules:
                continue
            for site in sites:
                resolved = project.resolve_function(mod, site.node.func)
                if resolved is None:
                    continue
                owner, qualname, target = resolved
                if owner == mod and scope_name == qualname:
                    continue  # self-recursion
                missing = self._missing_rng_param(site.node, target)
                if missing is not None:
                    yield self.finding(
                        ctx,
                        site.node.lineno,
                        site.node.col_offset,
                        f"call to stochastic `{qualname}` does not pass "
                        f"its required `{missing}` parameter; the seed "
                        "path from the root SeedSequence is broken here",
                    )

    @staticmethod
    def _missing_rng_param(
        call: ast.Call, target: FuncSymbol
    ) -> str | None:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return None  # *args/**kwargs forwarding — cannot tell
        passed_kw = {kw.arg for kw in call.keywords}
        for param in sorted(target.params + target.kwonly):
            if param not in _RNG_PARAM_NAMES:
                continue
            if param in passed_kw:
                continue
            idx = target.required_positional_index(param)
            if idx is not None and len(call.args) <= idx:
                return param
            if target.requires_kwonly(param):
                return param
        return None


# --------------------------------------------------------------------------
# RL101 — spawn safety
# --------------------------------------------------------------------------

#: Entry points that ship callables across the spawn boundary.
_POOL_FUNCS: frozenset[str] = frozenset({"parallel_map"})


@register
class SpawnSafetyRule(ProjectRule):
    """RL101: pool-submitted callables must be module-level picklable."""

    code = "RL101"
    name = "spawn-safety"
    severity = Severity.ERROR
    rationale = (
        "Callables submitted to repro.parallel (parallel_map) cross "
        "a spawn process boundary by pickle. "
        "Lambdas, closures, locally-bound callables and bound methods "
        "fail there — at best loudly at dispatch, at worst only on the "
        "retry path a crashed worker exercises. Submit module-level "
        "functions."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in sorted(project.modules):
            ctx = project.modules[mod]
            table = project.symbols[mod]
            # The defining module validates picklability at runtime.
            if any(name in table.functions for name in _POOL_FUNCS):
                continue
            for fn in _functions_of(table):
                scope = _FunctionScope(fn.node, frozenset(), ctx.resolve)
                yield from self._check_scope(
                    project, mod, fn.node, scope
                )
            yield from self._check_scope(project, mod, None, None)

    def _check_scope(
        self,
        project: ProjectContext,
        mod: str,
        node: ast.AST | None,
        scope: _FunctionScope | None,
    ) -> Iterator[Finding]:
        ctx = project.modules[mod]
        if node is None:
            calls: Iterator[ast.Call] = (
                s.node for s in project.calls.get((mod, ""), ())
            )
        else:
            calls = _scope_calls(node)
        for call in calls:
            dotted = ctx.resolve(call.func)
            if dotted is None:
                continue
            base = dotted.split(".")[-1]
            if base not in _POOL_FUNCS:
                continue
            candidates: list[ast.expr] = []
            if call.args and not isinstance(call.args[0], ast.Starred):
                candidates.append(call.args[0])
            candidates += [kw.value for kw in call.keywords if kw.arg == "fn"]
            for cand in candidates:
                problem = self._unpicklable(project, mod, cand, scope)
                if problem is not None:
                    yield self.finding(
                        ctx,
                        cand.lineno,
                        cand.col_offset,
                        f"{problem} submitted to `{base}`; spawn workers "
                        "unpickle their work function, so it must be a "
                        "module-level function",
                    )

    def _unpicklable(
        self,
        project: ProjectContext,
        mod: str,
        cand: ast.expr,
        scope: _FunctionScope | None,
    ) -> str | None:
        ctx = project.modules[mod]
        table = project.symbols[mod]
        if isinstance(cand, ast.Lambda):
            return "lambda"
        if isinstance(cand, ast.Call):
            dotted = ctx.resolve(cand.func)
            if dotted is not None and dotted.split(".")[-1] == "partial":
                if cand.args:
                    return self._unpicklable(
                        project, mod, cand.args[0], scope
                    )
            return None  # factory call — cannot tell statically
        if isinstance(cand, ast.Attribute):
            base = ctx.resolve(cand.value)
            if base is not None and (
                base in ctx.aliases.values()
                or project.find_module(base) is not None
            ):
                return None  # module attribute — module-level function
            if (
                isinstance(cand.value, ast.Name)
                and cand.value.id in ctx.aliases
            ):
                return None
            return "bound method"
        if isinstance(cand, ast.Name):
            name = cand.id
            if scope is not None and name in scope.nested_defs:
                return "closure-local function"
            if scope is not None and (
                name in scope.derived or name in scope.opaque
            ):
                return "locally-bound callable"
            if name in table.functions or name in ctx.aliases:
                return None
            if scope is not None and name in scope.params:
                return None  # threaded in — checked at its own call site
            if name in table.assigned_names:
                return "module-level binding (not a def)"
        return None


# --------------------------------------------------------------------------
# RL102 — cache-key purity
# --------------------------------------------------------------------------

#: Ambient-state reads forbidden in the fingerprinting closure.
_AMBIENT_CALLS: frozenset[str] = frozenset(
    {
        "os.getenv",
        "os.environ.get",
        "os.environ.items",
        "os.environ.keys",
        "os.environ.values",
        "os.getcwd",
        "os.listdir",
        "os.stat",
        "os.urandom",
        "os.scandir",
        "open",
        "input",
        "platform.node",
        "platform.platform",
        "platform.uname",
        "socket.gethostname",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)


@register
class CacheKeyPurityRule(ProjectRule):
    """RL102: fingerprinting must be a pure function of its inputs."""

    code = "RL102"
    name = "cache-key-purity"
    severity = Severity.ERROR
    rationale = (
        "The content-address contract (same scenario ⊕ seed ⊕ epoch ⇒ "
        "same key ⇒ same artifact) only holds if every function "
        "reachable from cache.keys fingerprinting is a pure function "
        "of its arguments. An env-var, wall-clock, filesystem or "
        "ambient-RNG read there silently forks the cache namespace "
        "between hosts and runs."
    )

    #: A fingerprinting module: ``keys.py`` under a ``cache`` directory.
    @staticmethod
    def _is_keys_module(project: ProjectContext, mod: str) -> bool:
        parts = project.modules[mod].path.parts
        return (
            parts[-1] == "keys.py" and len(parts) >= 2 and parts[-2] == "cache"
        )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots: set[tuple[str, str]] = set()
        for mod in project.modules:
            if self._is_keys_module(project, mod):
                for fn in project.symbols[mod].functions.values():
                    roots.add((mod, fn.qualname))
        if not roots:
            return
        for mod, qualname in sorted(project.reachable_from(roots)):
            ctx = project.modules[mod]
            for site in project.calls.get((mod, qualname), ()):
                impurity = self._impurity(site.resolved)
                if impurity is not None:
                    yield self.finding(
                        ctx,
                        site.node.lineno,
                        site.node.col_offset,
                        f"`{qualname}` is reachable from cache-key "
                        f"fingerprinting but reads {impurity} via "
                        f"`{site.resolved}`; cache keys must be pure "
                        "functions of (scenario, seed, epoch)",
                    )
            yield from self._environ_subscripts(project, mod, qualname)

    @staticmethod
    def _impurity(dotted: str | None) -> str | None:
        if dotted is None:
            return None
        if dotted in _WALL_CLOCK_CALLS:
            return "the wall clock"
        if dotted in _AMBIENT_CALLS or dotted.startswith("os.environ."):
            return "ambient process state"
        if dotted.startswith("random."):
            return "ambient RNG state"
        if dotted.startswith("numpy.random.") and dotted.split(".")[-1] in (
            "default_rng",
            "random",
            "normal",
            "randint",
            "rand",
            "randn",
            "seed",
        ):
            return "ambient RNG state"
        return None

    def _environ_subscripts(
        self, project: ProjectContext, mod: str, qualname: str
    ) -> Iterator[Finding]:
        ctx = project.modules[mod]
        fn = self._find_symbol(project, mod, qualname)
        if fn is None:
            return
        for expr in _iter_scope_exprs(fn.node):
            if (
                isinstance(expr, ast.Subscript)
                and ctx.resolve(expr.value) == "os.environ"
            ):
                yield self.finding(
                    ctx,
                    expr.lineno,
                    expr.col_offset,
                    f"`{qualname}` is reachable from cache-key "
                    "fingerprinting but reads ambient process state via "
                    "`os.environ[...]`; cache keys must be pure "
                    "functions of (scenario, seed, epoch)",
                )

    @staticmethod
    def _find_symbol(
        project: ProjectContext, mod: str, qualname: str
    ) -> FuncSymbol | None:
        table = project.symbols[mod]
        if qualname in table.functions:
            return table.functions[qualname]
        if "." in qualname:
            cls_name, meth = qualname.split(".", 1)
            cls = table.classes.get(cls_name)
            if cls is not None:
                return cls.methods.get(meth)
        return None


# --------------------------------------------------------------------------
# RL103 — epoch discipline
# --------------------------------------------------------------------------


def _signature_entry(fn: FuncSymbol) -> list[Any]:
    return [
        fn.name,
        list(fn.params),
        list(fn.kwonly),
        fn.n_defaults,
        sorted(fn.kwonly_defaults),
        fn.has_vararg,
        fn.has_kwarg,
    ]


def surface_digest(project: ProjectContext) -> str:
    """Digest of the public surface of all golden-relevant modules.

    The surface is the sorted set of public top-level functions and
    classes (with public-method signatures) of every module under a
    :data:`~repro.lint.rules._DETERMINISTIC_DIRS` directory.  Bodies,
    docstrings and private helpers are excluded: the digest answers
    "did the *interface* that feeds cached artifacts move", which is
    the event that forces a PIPELINE_EPOCH decision.
    """
    entries: list[list[Any]] = []
    for mod in sorted(project.modules):
        ctx = project.modules[mod]
        parts = ctx.path.parts
        hits = [
            i for i, p in enumerate(parts[:-1]) if p in _DETERMINISTIC_DIRS
        ]
        if not hits:
            continue
        rel = "/".join(parts[hits[0]:])
        table = project.symbols[mod]
        funcs = sorted(
            _signature_entry(fn)
            for name, fn in table.functions.items()
            if not name.startswith("_")
        )
        classes: list[list[Any]] = sorted(
            [
                cls.name,
                sorted(
                    _signature_entry(m)
                    for name, m in cls.methods.items()
                    if name == "__init__" or not name.startswith("_")
                ),
            ]
            for cls in table.classes.values()
            if not cls.name.startswith("_")
        )
        entries.append([rel, funcs, classes])
    payload = json.dumps(
        sorted(entries), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@register
class EpochDisciplineRule(ProjectRule):
    """RL103: the pipeline epoch must move with the golden surface."""

    code = "RL103"
    name = "epoch-discipline"
    severity = Severity.ERROR
    rationale = (
        "Cached artifacts are keyed by PIPELINE_EPOCH; a change to the "
        "public surface of the deterministic modules (sim, faults, "
        "workload, telemetry, chaos, cache) can move cached numbers "
        "without moving the key. PIPELINE_SURFACE records the surface "
        "digest the current epoch was minted for — when they drift, "
        "the author must decide: bump PIPELINE_EPOCH (artifacts "
        "change) or just re-record the digest (pure refactor)."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        keys_mod = self._keys_module(project)
        if keys_mod is None:
            return
        present = {
            part
            for mod in project.modules
            for part in project.modules[mod].path.parts[:-1]
            if part in _DETERMINISTIC_DIRS
        }
        if present != _DETERMINISTIC_DIRS:
            # Partial lint (single subtree): the digest would be
            # computed over an incomplete surface; skip rather than lie.
            return
        ctx = project.modules[keys_mod]
        actual = surface_digest(project)
        recorded, lineno = self._recorded_surface(ctx.tree)
        if recorded is None:
            yield self.finding(
                ctx,
                lineno or 1,
                0,
                "module defines PIPELINE_EPOCH but not PIPELINE_SURFACE; "
                f"record the current surface digest ({actual!r}) next to "
                "the epoch so drift is machine-checked",
            )
        elif recorded != actual:
            yield self.finding(
                ctx,
                lineno or 1,
                0,
                "public surface of the deterministic modules drifted: "
                f"digest is now {actual!r} but PIPELINE_SURFACE records "
                f"{recorded!r}. If cached artifacts can change, bump "
                "PIPELINE_EPOCH; either way update PIPELINE_SURFACE to "
                f"{actual!r}",
            )

    @staticmethod
    def _keys_module(project: ProjectContext) -> str | None:
        for mod in sorted(project.modules):
            if "PIPELINE_EPOCH" in project.symbols[mod].assigned_names:
                return mod
        return None

    @staticmethod
    def _recorded_surface(
        tree: ast.Module,
    ) -> tuple[str | None, int | None]:
        epoch_line: int | None = None
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "PIPELINE_EPOCH":
                    epoch_line = node.lineno
                if (
                    target.id == "PIPELINE_SURFACE"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    return value.value, node.lineno
        return None, epoch_line
