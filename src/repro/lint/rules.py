"""The reprolint rule registry.

Each rule has a stable code (``RPL001``...), a one-line summary, and a
``check(context)`` method yielding :class:`~repro.lint.engine.Finding`
objects.  Rules are registered with :func:`register` so reporters, the CLI,
and the self-gate test all enumerate the same set.

The rules encode this reproduction's failure modes: Algorithm 1's
Tsallis-INF sampling and Algorithm 2's primal-dual updates are verifiable
against the paper's Theorem 1-3 bounds only if every run is seed-exact and
every simplex/estimator invariant holds, so randomness must flow through
named ``np.random.Generator`` streams, clock reads must not leak into
simulated time, and hot-path numerics must be guarded.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.project import (
    ModuleInfo,
    ProjectContext,
    ResolvedFunction,
    build_module,
)

__all__ = [
    "BlockingCallInAsyncRule",
    "DEFAULT_PATH_RULES",
    "DEFAULT_PATH_SEVERITY",
    "DroppedTaskRule",
    "DunderAllDriftRule",
    "FloatEqualityRule",
    "GlobalRandomStateRule",
    "HOT_PATH_DIRS",
    "InPlaceArrayMutationRule",
    "LateRealizedRandomnessRule",
    "MutableDefaultRule",
    "PRINT_ALLOWED",
    "PrintInLibraryRule",
    "ProjectRule",
    "RawGeneratorRule",
    "Rule",
    "ShapeClaimRule",
    "SharedAsyncStateRule",
    "SilentExceptionRule",
    "UnguardedHotPathNumericsRule",
    "UnseededDefaultRngRule",
    "UnvalidatedArrayParamRule",
    "WallClockRule",
    "all_rules",
    "dotted_name",
    "register",
    "registered_codes",
]

#: Directories whose modules form the numerical hot path (Algorithms 1-2).
HOT_PATH_DIRS = ("core", "bandits", "trading")

#: Directories/modules allowed to write to stdout (user-facing surfaces).
PRINT_ALLOWED = ("experiments", "lint", "cli", "__main__")

#: Per-path rule waivers applied by default (directory/stem -> rule codes).
#: ``benchmarks/`` harnesses print their results by design — that is their
#: entire user interface — so RPL010 is waived there by configuration
#: instead of per-line ``noqa`` noise; every other rule still applies.
#: ``tests/`` intentionally compare floats bit-for-bit (the reproducibility
#: contract *is* exact equality) and spin up ad-hoc seeded generators per
#: test case, so RPL003 and RPL015 are waived there; benchmarks likewise
#: seed throwaway generators for load synthesis.
#: ``repro.bench`` (the in-package benchmark registry behind ``repro
#: bench``) needs no entry: its workload generators go through the keyed
#: ``spawn_generator`` helper, and its printing surface is confined to
#: ``bench/cli.py``, which the RPL010 ``cli``-stem allowance covers.
DEFAULT_PATH_RULES: dict[str, frozenset[str]] = {
    "benchmarks": frozenset({"RPL010", "RPL015"}),
    "tests": frozenset({"RPL003", "RPL015"}),
}

#: Per-path severity overrides applied by default (directory/stem ->
#: {code: severity}).  ``examples/`` scripts also print by design, but a
#: *downgrade* beats a waiver there: prints stay visible in reports (so an
#: example growing non-demo logic is noticed) without failing the gate.
DEFAULT_PATH_SEVERITY: dict[str, dict[str, str]] = {
    "examples": {"RPL010": "warning"},
}

_REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry (code-unique)."""
    if not cls.code.startswith("RPL"):
        raise ValueError(f"rule code must start with 'RPL', got {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list["Rule"]:
    """One fresh instance of every registered rule, sorted by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def registered_codes() -> list[str]:
    """The sorted stable codes of every registered rule."""
    return sorted(_REGISTRY)


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings.

    ``severity`` is the rule's default level for every finding it emits
    (``"error"`` gates the CLI exit code, ``"warning"`` never does);
    per-path severity overrides may adjust it after the fact.
    """

    code: str = "RPL000"
    summary: str = ""
    severity: str = "error"

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for one file; default walks every AST node."""
        for node in ast.walk(context.tree):
            yield from self.visit(node, context)

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        """Per-node hook for ``check``'s default walk; override either."""
        return iter(())

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )


def dotted_name(node: ast.AST) -> str | None:
    """Resolve ``a.b.c`` attribute chains to the string ``"a.b.c"``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> str | None:
    return dotted_name(node.func)


# Module-level numpy legacy RandomState functions and stdlib ``random``
# sampling functions — both mutate hidden global state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "beta", "binomial", "exponential",
        "gamma", "geometric", "gumbel", "laplace", "lognormal", "poisson",
        "get_state", "set_state", "random_integers", "randrange", "choices",
        "betavariate", "gauss", "expovariate", "triangular", "vonmisesvariate",
    }
)


@register
class GlobalRandomStateRule(Rule):
    """RPL001 — calls that draw from hidden global RNG state."""

    code = "RPL001"
    summary = (
        "global random state (np.random.* / random.*) breaks seed "
        "reproducibility; thread a np.random.Generator instead"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is None:
                return
            parts = name.split(".")
            if (
                len(parts) >= 2
                and parts[-2] == "random"
                and parts[-1] in _GLOBAL_RANDOM_FNS
            ):
                yield self.finding(
                    context,
                    node,
                    f"call to {name}() uses hidden global RNG state; "
                    "draw from an explicit np.random.Generator stream",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _GLOBAL_RANDOM_FNS
                )
                if bad:
                    yield self.finding(
                        context,
                        node,
                        "importing global-state samplers from the stdlib "
                        f"random module ({', '.join(bad)}); use "
                        "np.random.Generator streams",
                    )


@register
class UnseededDefaultRngRule(Rule):
    """RPL002 — ``default_rng()`` with no seed in library code."""

    code = "RPL002"
    summary = (
        "default_rng() without a seed/SeedSequence is nondeterministic; "
        "accept a Generator parameter or thread a seed"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name is None or name.split(".")[-1] != "default_rng":
            return
        if not node.args and not node.keywords:
            yield self.finding(
                context,
                node,
                "default_rng() without arguments seeds from OS entropy; "
                "pass a seed/SeedSequence or accept a Generator parameter",
            )


@register
class FloatEqualityRule(Rule):
    """RPL003 — ``==`` / ``!=`` against float literals."""

    code = "RPL003"
    summary = (
        "float equality comparison; use an explicit tolerance "
        "(math.isclose / np.isclose) or an ordering test"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(
                isinstance(side, ast.Constant) and isinstance(side.value, float)
                for side in pair
            ):
                yield self.finding(
                    context,
                    node,
                    "equality comparison against a float literal is "
                    "rounding-fragile; compare with a tolerance or restate "
                    "as an ordering test",
                )


_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


@register
class MutableDefaultRule(Rule):
    """RPL004 — mutable default argument values."""

    code = "RPL004"
    summary = "mutable default argument is shared across calls; default to None"

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            )
            if mutable:
                yield self.finding(
                    context,
                    default,
                    f"mutable default argument in {node.name}() is evaluated "
                    "once and shared across calls; default to None and "
                    "construct inside the body",
                )


_STABILIZERS = frozenset({"clip", "min", "max", "minimum", "maximum", "where"})


def _has_stabilizer(node: ast.AST) -> bool:
    """Whether a subtree contains a range-limiting call (clip/min/max/...)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None and name.split(".")[-1] in _STABILIZERS:
                return True
    return False


_ZERO_REDUCERS = frozenset({"sum", "len", "count_nonzero", "prod"})


@register
class UnguardedHotPathNumericsRule(Rule):
    """RPL005 — unguarded ``exp`` / risky division in hot-path modules."""

    code = "RPL005"
    summary = (
        "hot-path (core/bandits/trading) exp without clip/max-shift, or "
        "division by a bare reduction that can be zero"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.in_directory(*HOT_PATH_DIRS):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if (
                    name is not None
                    and name.split(".")[-1] == "exp"
                    and name.split(".")[0] in {"np", "numpy", "math"}
                    and node.args
                    and not _has_stabilizer(node.args[0])
                ):
                    yield self.finding(
                        context,
                        node,
                        "np.exp on an unbounded argument can overflow and "
                        "poison the simplex; clip or max-shift the exponent "
                        "first",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                den = node.right
                if isinstance(den, ast.Call):
                    name = _call_name(den)
                    if (
                        name is not None
                        and name.split(".")[-1] in _ZERO_REDUCERS
                        and not _has_stabilizer(node.right)
                    ):
                        yield self.finding(
                            context,
                            node,
                            f"division by {name}(...) can divide by zero on "
                            "empty/degenerate input; bound it with max(...) "
                            "or validate first",
                        )


def _annotation_text(annotation: ast.AST | None) -> str:
    if annotation is None:
        return ""
    try:
        return ast.unparse(annotation)
    except Exception:  # pragma: no cover - unparse failure is cosmetic only
        return ""


_ARRAY_MARKERS = ("ndarray", "ArrayLike")


@register
class UnvalidatedArrayParamRule(Rule):
    """RPL006 — public ``core/`` callables taking arrays without check_*."""

    code = "RPL006"
    summary = (
        "public core/ function accepts an ndarray parameter but never calls "
        "a check_* validator"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.in_directory("core"):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            annotated = [
                arg.arg
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                if any(
                    marker in _annotation_text(arg.annotation)
                    for marker in _ARRAY_MARKERS
                )
            ]
            if not annotated:
                continue
            calls_validator = any(
                isinstance(sub, ast.Call)
                and (name := dotted_name(sub.func)) is not None
                and name.split(".")[-1].startswith("check_")
                for sub in ast.walk(node)
            )
            if not calls_validator:
                yield self.finding(
                    context,
                    node,
                    f"{node.name}() accepts array parameter(s) "
                    f"{', '.join(annotated)} but never calls a check_* "
                    "validator (repro.utils.validation)",
                )


@register
class DunderAllDriftRule(Rule):
    """RPL007 — ``__all__`` out of sync with the module's public names."""

    code = "RPL007"
    summary = (
        "__all__ lists an unbound name, or a public top-level def/class is "
        "missing from __all__"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        module = context.tree
        all_node: ast.AST | None = None
        declared: list[str] | None = None
        for stmt in module.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    all_node = stmt
                    if isinstance(value, (ast.List, ast.Tuple)):
                        declared = [
                            elt.value
                            for elt in value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
        if all_node is None or declared is None:
            return

        bound: set[str] = set()
        public_defs: dict[str, ast.AST] = {}
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
                if not stmt.name.startswith("_"):
                    public_defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            bound.add(sub.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        return  # star imports defeat static analysis
                    bound.add(alias.asname or alias.name.split(".")[0])
        bound.add("__version__")

        for name in declared:
            if name not in bound:
                yield self.finding(
                    context,
                    all_node,
                    f"__all__ lists {name!r} which is not defined or "
                    "imported at module top level",
                )
        declared_set = set(declared)
        for name, node in sorted(public_defs.items()):
            if name not in declared_set:
                yield self.finding(
                    context,
                    node,
                    f"public top-level name {name!r} is missing from "
                    "__all__; export it or rename with a leading underscore",
                )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """RPL008 — wall-clock reads leaking into simulated time."""

    code = "RPL008"
    summary = (
        "time.time()/datetime.now() makes runs time-dependent; simulated "
        "time must come from the slot index (perf_counter is fine for "
        "duration measurement)"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name in _WALL_CLOCK_CALLS:
            yield self.finding(
                context,
                node,
                f"{name}() reads the wall clock, making runs "
                "nondeterministic; derive simulated time from the slot "
                "index (use time.perf_counter only to measure durations)",
            )


@register
class SilentExceptionRule(Rule):
    """RPL009 — bare excepts and silently swallowed broad exceptions."""

    code = "RPL009"
    summary = "bare except, or broad except whose body is just pass"

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            yield self.finding(
                context,
                node,
                "bare except catches SystemExit/KeyboardInterrupt too; "
                "name the exceptions you expect",
            )
            return
        broad = dotted_name(node.type) in {"Exception", "BaseException"}
        swallows = all(isinstance(stmt, ast.Pass) for stmt in node.body)
        if broad and swallows:
            yield self.finding(
                context,
                node,
                "broad exception silently swallowed; numerical failures in "
                "this codebase must surface, not vanish",
            )


@register
class PrintInLibraryRule(Rule):
    """RPL010 — stray ``print`` in library (non-CLI, non-experiment) code."""

    code = "RPL010"
    summary = (
        "print() in library code pollutes experiment output; raise, return, "
        "or report through the experiments/reporting layer"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.stem in PRINT_ALLOWED or context.in_directory(*PRINT_ALLOWED):
            return
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    context,
                    node,
                    "print() in library code; route output through the "
                    "reporting layer or a returned value",
                )


#: ndarray methods that mutate the array they are called on.
_INPLACE_ARRAY_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "setflags", "itemset"}
)

#: Calls that produce an independent array (rebinding a parameter through
#: one of these severs aliasing with the caller's array).
_COPYING_CALLS = frozenset({"copy", "array", "deepcopy", "ascontiguousarray"})


def _is_copy_expr(value: ast.expr) -> bool:
    """Whether an expression's result is detached from its inputs' storage."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name is not None and name.split(".")[-1] in _COPYING_CALLS:
                return True
    return False


@register
class InPlaceArrayMutationRule(Rule):
    """RPL011 — array parameters mutated in place without a ``.copy()``."""

    code = "RPL011"
    summary = (
        "function mutates an ndarray parameter in place without copying "
        "first; the caller's array is silently modified"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(node, context)

    def _check_function(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        context: FileContext,
    ) -> Iterator[Finding]:
        args = func.args
        array_params = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if any(
                marker in _annotation_text(arg.annotation)
                for marker in _ARRAY_MARKERS
            )
        }
        if not array_params:
            return
        # A parameter rebound to a fresh array (x = x.copy(), np.array(x),
        # copy.deepcopy(x), ...) no longer aliases the caller's storage:
        # mutations after the rebind line are the callee's own business.
        copied_after: dict[str, int] = {}
        for sub in ast.walk(func):
            if isinstance(sub, ast.Assign) and _is_copy_expr(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Name) and target.id in array_params:
                        line = copied_after.get(target.id, sub.lineno)
                        copied_after[target.id] = min(line, sub.lineno)
        for sub in ast.walk(func):
            param = self._mutated_param(sub, array_params)
            if param is None:
                continue
            if getattr(sub, "lineno", 0) > copied_after.get(param, 1 << 60):
                continue
            yield self.finding(
                context,
                sub,
                f"{func.name}() mutates array parameter {param!r} in "
                "place; the caller's array is silently modified — operate "
                f"on a copy ({param} = {param}.copy()) or document the "
                "aliasing contract",
            )

    @staticmethod
    def _mutated_param(node: ast.AST, params: set[str]) -> str | None:
        """The parameter name ``node`` mutates in place, if any."""

        def base_name(target: ast.expr) -> str | None:
            if isinstance(target, ast.Subscript):
                inner = target.value
                while isinstance(inner, (ast.Subscript, ast.Attribute)):
                    inner = inner.value
                if isinstance(inner, ast.Name):
                    return inner.id
            return None

        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = base_name(target)
                if name in params:
                    return name
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id in params:
                return target.id
            name = base_name(target)
            if name in params:
                return name
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in params
                and node.func.attr in _INPLACE_ARRAY_METHODS
            ):
                return node.func.value.id
            for keyword in node.keywords:
                if (
                    keyword.arg == "out"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in params
                ):
                    return keyword.value.id
        return None


# ---------------------------------------------------------------------------
# Project-aware rules (RPL012-RPL017)
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """Base for rules that consume the cross-module :class:`ProjectContext`.

    The engine passes ``project`` when linting a path set; single-blob entry
    points pass ``None`` and the rule degrades to per-file precision (same
    code paths, empty import resolution).
    """

    requires_project = True

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        """Yield findings for one file, with optional project context."""
        return iter(())


def _module_for(
    context: FileContext, project: ProjectContext | None
) -> ModuleInfo:
    """The indexed module for this file, building one locally if needed."""
    if project is not None:
        module = project.module_for_path(context.path)
        if module is not None:
            return module
    return build_module(context.path, context.source, context.tree)


def _canonical_call(name: str, module: ModuleInfo | None) -> str:
    """Rewrite a call name's head through the module's import aliases.

    ``sleep`` with ``from time import sleep`` becomes ``time.sleep``;
    unaliased names pass through unchanged.
    """
    if module is None:
        return name
    head, _, rest = name.partition(".")
    target = module.imports.get(head, head)
    return f"{target}.{rest}" if rest else target


def _follow_reexports(
    dotted: str, project: ProjectContext | None, _depth: int = 0
) -> str:
    """Chase ``from m import f as g`` chains across project modules.

    ``helpers.make_stream`` resolves to ``numpy.random.default_rng`` when
    ``helpers.py`` aliased it — the cross-module view per-file rules lack.
    """
    if project is None or _depth > 5 or "." not in dotted:
        return dotted
    mod_part, _, symbol = dotted.rpartition(".")
    target = project.resolve_module(mod_part)
    if target is not None and symbol in target.imports:
        onward = target.imports[symbol]
        if onward != dotted:
            return _follow_reexports(onward, project, _depth + 1)
    return dotted


def _executed_calls(
    body: list[ast.stmt] | ast.AST,
) -> Iterator[ast.Call]:
    """Calls executed when this body runs (nested defs/lambdas excluded)."""
    stack: list[ast.AST] = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _async_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.AsyncFunctionDef, str | None]]:
    """Every ``async def`` in the module with its enclosing class name."""

    def walk(node: ast.AST, owner: str | None) -> Iterator[tuple[ast.AsyncFunctionDef, str | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, ast.AsyncFunctionDef):
                yield child, owner
                yield from walk(child, owner)
            else:
                yield from walk(child, owner)

    yield from walk(tree, None)


def _resolve_sync_callee(
    name: str,
    module: ModuleInfo,
    owner_class: str | None,
    project: ProjectContext | None,
) -> ResolvedFunction | None:
    """Resolve a call name to a function def we can analyze, if possible."""
    if name.startswith("self."):
        rest = name[len("self.") :]
        if owner_class is None or "." in rest:
            return None
        node = module.class_method(owner_class, rest)
        if node is None:
            return None
        return ResolvedFunction(
            module=module, qualname=f"{owner_class}.{rest}", node=node
        )
    if project is not None:
        return project.resolve_function(module, name)
    if "." not in name:
        node = module.functions.get(name)
        if node is not None:
            return ResolvedFunction(module=module, qualname=name, node=node)
    return None


#: Canonical dotted names that always block the event loop.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "socket.create_connection",
        "socket.create_server",
        "socket.getaddrinfo",
    }
)

#: ``subprocess`` entry points that wait on a child synchronously.
_BLOCKING_SUBPROCESS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen", "getoutput",
     "getstatusoutput"}
)

#: Attribute calls performing synchronous file I/O (``Path`` and file
#: objects); receivers are not type-resolved, so this is a name heuristic.
_BLOCKING_FILE_ATTRS = frozenset(
    {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Maximum function-call hops followed when searching for a transitively
#: reachable blocking primitive from an ``async def``.
_BLOCKING_DEPTH = 3


def _blocking_primitive(call: ast.Call, module: ModuleInfo | None) -> str | None:
    """A human-readable description if this call blocks the event loop."""
    name = _call_name(call)
    if name is None:
        return None
    canon = _canonical_call(name, module)
    if canon in _BLOCKING_CALLS:
        return f"{canon}()"
    parts = canon.split(".")
    if parts[0] == "subprocess" and parts[-1] in _BLOCKING_SUBPROCESS:
        return f"{canon}()"
    if name == "open" and (module is None or "open" not in module.imports):
        return "open()"
    if "." in name and name.split(".")[-1] in _BLOCKING_FILE_ATTRS:
        return f"{name}()"
    return None


@register
class BlockingCallInAsyncRule(ProjectRule):
    """RPL012 — blocking calls inside ``async def``, including transitive."""

    code = "RPL012"
    summary = (
        "blocking call (time.sleep / sync file or socket I/O / subprocess) "
        "inside async def stalls every coroutine sharing the loop; use the "
        "asyncio equivalent or asyncio.to_thread"
    )

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        module = _module_for(context, project)
        for fn, owner in _async_functions(context.tree):
            for call in _executed_calls(fn.body):
                primitive = _blocking_primitive(call, module)
                if primitive is not None:
                    yield self.finding(
                        context,
                        call,
                        f"blocking {primitive} inside async def {fn.name}; "
                        "the event loop (and every other coroutine) stalls "
                        "until it returns — use the asyncio equivalent or "
                        "asyncio.to_thread",
                    )
                    continue
                name = _call_name(call)
                if name is None:
                    continue
                resolved = _resolve_sync_callee(name, module, owner, project)
                if resolved is None or isinstance(
                    resolved.node, ast.AsyncFunctionDef
                ):
                    continue
                seen = {(resolved.module.name, resolved.qualname)}
                hit = self._search(resolved, project, 1, seen)
                if hit is not None:
                    primitive, chain = hit
                    via = " -> ".join([resolved.qualname, *chain])
                    yield self.finding(
                        context,
                        call,
                        f"async def {fn.name} reaches blocking {primitive} "
                        f"through {via}; the event loop stalls until it "
                        "returns — use the asyncio equivalent or "
                        "asyncio.to_thread",
                    )

    def _search(
        self,
        fn: ResolvedFunction,
        project: ProjectContext | None,
        depth: int,
        seen: set[tuple[str, str]],
    ) -> tuple[str, list[str]] | None:
        """Find a blocking primitive reachable from ``fn``, depth-capped."""
        owner = fn.qualname.split(".")[0] if "." in fn.qualname else None
        for call in _executed_calls(fn.node.body):
            primitive = _blocking_primitive(call, fn.module)
            if primitive is not None:
                return primitive, []
            if depth >= _BLOCKING_DEPTH:
                continue
            name = _call_name(call)
            if name is None:
                continue
            resolved = _resolve_sync_callee(name, fn.module, owner, project)
            if resolved is None or isinstance(resolved.node, ast.AsyncFunctionDef):
                continue
            key = (resolved.module.name, resolved.qualname)
            if key in seen:
                continue
            seen.add(key)
            sub = self._search(resolved, project, depth + 1, seen)
            if sub is not None:
                return sub[0], [resolved.qualname, *sub[1]]
        return None


@register
class DroppedTaskRule(Rule):
    """RPL013 — ``asyncio.create_task`` results dropped without retention."""

    code = "RPL013"
    summary = (
        "asyncio.create_task/ensure_future result discarded; the event loop "
        "holds only a weak reference, so the task can be garbage-collected "
        "mid-flight — retain the handle"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        call: ast.Call | None = None
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_"
        ):
            call = node.value
        if call is None:
            return
        name = _call_name(call)
        if name is None:
            return
        parts = name.split(".")
        spawns = (parts == ["asyncio", "create_task"]) or (
            parts[-1] == "ensure_future"
        ) or (len(parts) == 1 and parts[0] == "create_task")
        if spawns:
            yield self.finding(
                context,
                node,
                f"result of {name}() is dropped; asyncio keeps only a weak "
                "reference to scheduled tasks, so this one can be "
                "garbage-collected before it runs — keep the handle and "
                "await or cancel it during shutdown",
            )


@register
class SharedAsyncStateRule(Rule):
    """RPL014 — one attribute written from two or more coroutine methods."""

    code = "RPL014"
    summary = (
        "instance attribute written from multiple async methods; interleaved "
        "coroutines race on it — route the hand-off through an asyncio.Queue "
        "or confine writes to one task"
    )
    severity = "warning"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, context)

    def _check_class(
        self, cls: ast.ClassDef, context: FileContext
    ) -> Iterator[Finding]:
        # attr name -> [(method name, write node), ...] over async methods.
        # Writes inside ``async with self.<lock/condition>`` blocks are
        # already serialized and do not count.
        writes: dict[str, list[tuple[str, ast.AST]]] = {}
        for stmt in cls.body:
            if not isinstance(stmt, ast.AsyncFunctionDef):
                continue
            for sub in self._unguarded_nodes(stmt):
                attr = self._written_self_attr(sub)
                if attr is not None:
                    writes.setdefault(attr, []).append((stmt.name, sub))
        for attr, sites in sorted(writes.items()):
            methods = sorted({name for name, _ in sites})
            if len(methods) < 2:
                continue
            _, node = sites[0]
            yield self.finding(
                context,
                node,
                f"self.{attr} is written from multiple coroutines "
                f"({', '.join(methods)}) of {cls.name}; interleaved tasks "
                "race on it — pass the value through an asyncio.Queue or "
                "give one task sole ownership",
            )

    @classmethod
    def _unguarded_nodes(cls, root: ast.AST) -> Iterator[ast.AST]:
        """Walk ``root`` skipping subtrees serialized by an instance lock."""
        for child in ast.iter_child_nodes(root):
            if isinstance(child, ast.AsyncWith) and any(
                isinstance(item.context_expr, ast.Attribute)
                and isinstance(item.context_expr.value, ast.Name)
                and item.context_expr.value.id == "self"
                for item in child.items
            ):
                continue
            yield child
            yield from cls._unguarded_nodes(child)

    @staticmethod
    def _written_self_attr(node: ast.AST) -> str | None:
        """The first-level ``self.X`` attribute this statement writes."""

        def self_attr(target: ast.expr) -> str | None:
            # Walk to the attribute directly on ``self`` so that
            # ``self.stats.events -= 1`` reports "stats", the shared object.
            while isinstance(target, (ast.Attribute, ast.Subscript)):
                inner = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(inner, ast.Name)
                    and inner.id == "self"
                ):
                    return target.attr
                target = inner
            return None

        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attr(target)
                if attr is not None:
                    return attr
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return self_attr(node.target)
        return None


#: ``numpy.random`` constructors that mint a fresh bit-generator stream.
_RAW_RNG_FACTORIES = frozenset(
    {"default_rng", "Generator", "RandomState", "PCG64", "MT19937", "Philox",
     "SFC64"}
)


def _is_raw_rng(canon: str) -> bool:
    """Whether a canonical dotted name is a raw numpy stream constructor."""
    parts = canon.split(".")
    if parts[-1] not in _RAW_RNG_FACTORIES:
        return False
    return "random" in parts or parts[0] in {"np", "numpy"}


@register
class RawGeneratorRule(ProjectRule):
    """RPL015 — raw generator creation outside the named-stream helpers."""

    code = "RPL015"
    summary = (
        "np.random.default_rng/Generator created outside repro.utils.rng; "
        "ad-hoc streams break the named-stream discipline that keeps runs "
        "seed-exact — use RngFactory.get or spawn_generator"
    )

    @staticmethod
    def _sanctioned(context: FileContext) -> bool:
        # repro/utils/rng.py is the named-stream helper module itself.
        return context.stem == "rng" and context.in_directory("utils")

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        if self._sanctioned(context):
            return
        module = _module_for(context, project)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            canon = _canonical_call(name, module)
            resolved = _follow_reexports(canon, project)
            if not _is_raw_rng(resolved):
                continue
            via = "" if resolved == name else f" (resolves to {resolved})"
            yield self.finding(
                context,
                node,
                f"{name}(){via} creates a raw numpy generator outside the "
                "named-stream helpers; use RngFactory.get(name) or "
                "spawn_generator(seed, name) so the stream is keyed, not "
                "ordered",
            )


#: ``numpy.random.Generator`` sampling methods — calling one *realizes*
#: randomness (advances the stream).
_DRAW_METHODS = frozenset(
    {
        "random", "normal", "uniform", "integers", "choice", "shuffle",
        "permutation", "standard_normal", "exponential", "poisson",
        "binomial", "geometric", "gamma", "beta", "lognormal", "dirichlet",
        "multivariate_normal",
    }
)


def _rng_draw_base(call: ast.Call) -> str | None:
    """The receiver name if this call draws from a generator-like object."""
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in _DRAW_METHODS:
        return None
    base = dotted_name(call.func.value)
    if base is None:
        return None
    leaf = base.split(".")[-1].lower()
    if "rng" in leaf or "random" in leaf or leaf in {"gen", "generator"}:
        return base
    return None


@register
class LateRealizedRandomnessRule(Rule):
    """RPL016 — fault-spec randomness realized after construction."""

    code = "RPL016"
    summary = (
        "fault/scenario class draws randomness in a method not reachable "
        "from __init__; realize every draw at construction so injection "
        "order cannot perturb other streams"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.in_directory("faults"):
            return
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, context)

    def _check_class(
        self, cls: ast.ClassDef, context: FileContext
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        roots = [name for name in ("__init__", "__post_init__") if name in methods]
        if not roots:
            return
        # Methods (and module-level helper calls) reachable from __init__
        # count as construction time.
        reachable: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            for call in _executed_calls(methods[current].body):
                name = _call_name(call)
                if name is None:
                    continue
                if name.startswith("self."):
                    target = name[len("self.") :]
                    if target in methods and target not in reachable:
                        stack.append(target)
                elif name in methods and name not in reachable:
                    # staticmethod-style direct reference
                    stack.append(name)
        for name, method in sorted(methods.items()):
            if name in reachable:
                continue
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                base = _rng_draw_base(call)
                if base is not None:
                    yield self.finding(
                        context,
                        call,
                        f"{cls.name}.{name} draws from {base} after "
                        "construction; realize all fault randomness in "
                        "__init__ from named streams so replay order cannot "
                        "shift other consumers' draws",
                    )


@register
class ShapeClaimRule(ProjectRule):
    """RPL017 — documented array-shape claims contradicted by the code."""

    code = "RPL017"
    summary = (
        "docstring/comment shape claim like (I, N) contradicted by actual "
        "indexing, axis=, or .shape[...] use; fix the claim or the code"
    )

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        module = _module_for(context, project)
        attr_claims = project.attribute_claims if project is not None else {}
        # Merge in this module's own class-attribute claims so single-file
        # runs still check self.<attr> uses.
        local_attr_claims = dict(attr_claims)
        for scope_name, scope in module.claims.items():
            if scope_name in module.classes:
                for claim_name, claim in scope.items():
                    local_attr_claims.setdefault(claim_name, claim)

        for qualname, fn in [
            *module.functions.items(),
            *module.methods.items(),
        ]:
            claims = module.claims.get(qualname, {})
            yield from self._check_scope(
                fn, claims, local_attr_claims, context, module, project
            )
        module_claims = module.claims.get("<module>", {})
        if module_claims:
            top_level = [
                stmt
                for stmt in context.tree.body
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            ]
            for stmt in top_level:
                yield from self._check_scope(
                    stmt, module_claims, local_attr_claims, context, module,
                    project,
                )

    def _check_scope(
        self,
        root: ast.AST,
        claims: dict,
        attr_claims: dict,
        context: FileContext,
        module: ModuleInfo,
        project: ProjectContext | None,
    ) -> Iterator[Finding]:
        def claim_for(expr: ast.expr):
            if isinstance(expr, ast.Name):
                return claims.get(expr.id)
            if isinstance(expr, ast.Attribute):
                return attr_claims.get(expr.attr)
            return None

        for node in ast.walk(root):
            if isinstance(node, ast.Subscript):
                base = node.value
                if isinstance(base, ast.Attribute) and base.attr == "shape":
                    claim = claim_for(base.value)
                    if (
                        claim is not None
                        and isinstance(node.slice, ast.Constant)
                        and isinstance(node.slice.value, int)
                    ):
                        k = node.slice.value
                        if not (-claim.ndim <= k < claim.ndim):
                            yield self.finding(
                                context,
                                node,
                                f".shape[{k}] on an array documented as "
                                f"{claim.text} ({claim.ndim} axes, claimed "
                                f"at line {claim.line}); the claim and the "
                                "code disagree",
                            )
                    continue
                claim = claim_for(base)
                if claim is None:
                    continue
                arity = self._index_arity(node.slice)
                if arity is not None and arity > claim.ndim:
                    label = (
                        base.id
                        if isinstance(base, ast.Name)
                        else f".{base.attr}"
                    )
                    yield self.finding(
                        context,
                        node,
                        f"{label} is indexed with {arity} subscripts but "
                        f"documented as {claim.text} ({claim.ndim} axes, "
                        f"claimed at line {claim.line}); the claim and the "
                        "code disagree",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    node, claims, attr_claims, claim_for, context, module,
                    project,
                )

    @staticmethod
    def _index_arity(index: ast.expr) -> int | None:
        """How many axes a subscript consumes, or None if indeterminate.

        Only explicit tuple subscripts count; ``...``, ``None`` (newaxis)
        and starred elements make the arity indeterminate.
        """
        if not isinstance(index, ast.Tuple):
            return None
        for elt in index.elts:
            if isinstance(elt, ast.Starred):
                return None
            if isinstance(elt, ast.Constant) and (
                elt.value is Ellipsis or elt.value is None
            ):
                return None
        return len(index.elts)

    def _check_call(
        self,
        node: ast.Call,
        claims: dict,
        attr_claims: dict,
        claim_for,
        context: FileContext,
        module: ModuleInfo,
        project: ProjectContext | None,
    ) -> Iterator[Finding]:
        claim = None
        if isinstance(node.func, ast.Attribute):
            claim = claim_for(node.func.value)
        if claim is None and node.args:
            fname = dotted_name(node.func) or ""
            if fname.split(".")[0] in {"np", "numpy"}:
                claim = claim_for(node.args[0])
        if claim is not None:
            for kw in node.keywords:
                if (
                    kw.arg == "axis"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, int)
                ):
                    axis = kw.value.value
                    if not (-claim.ndim <= axis < claim.ndim):
                        yield self.finding(
                            context,
                            kw.value,
                            f"axis={axis} on an array documented as "
                            f"{claim.text} ({claim.ndim} axes, claimed at "
                            f"line {claim.line}); the claim and the code "
                            "disagree",
                        )
        # Cross-module forwarding: a locally-claimed array passed where the
        # callee's docstring claims a different rank.
        if project is None:
            return
        name = _call_name(node)
        if name is None or name.startswith("self."):
            return
        resolved = project.resolve_function(module, name)
        if resolved is None or "." in resolved.qualname:
            return
        callee_claims = resolved.module.claims.get(resolved.qualname, {})
        if not callee_claims:
            return
        args = resolved.node.args
        params = [
            a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        for pos, arg in enumerate(node.args):
            if not isinstance(arg, ast.Name) or pos >= len(params):
                continue
            local = claims.get(arg.id)
            remote = callee_claims.get(params[pos])
            if local is None or remote is None:
                continue
            if local.ndim != remote.ndim:
                yield self.finding(
                    context,
                    arg,
                    f"{arg.id} is documented as {local.text} here but "
                    f"{resolved.qualname}() documents parameter "
                    f"{params[pos]!r} as {remote.text} "
                    f"({resolved.module.path}:{remote.line}); the claims "
                    "disagree",
                )
