"""Rule family D: determinism of the compiled-plan kernels.

Plan keys and operator results must be pure functions of the query and
the graph *content* — never of wall-clock time, RNG draws, or CPython
object identity.  The plan cache and the differential parity harness
both assume it.

* **D001** — wall-clock read inside a strict module: ``time.time``,
  ``time.localtime``, ``datetime.now``/``utcnow``/``today``.
  ``time.perf_counter``/``monotonic`` stay legal (profiling only).
* **D002** — RNG use.  Inside strict modules, *any* RNG construction or
  module-level draw is a finding.  Elsewhere, unseeded RNG is a finding
  unless the module is on the seeded-RNG allowlist **and** the
  construction passes an explicit seed (``random.Random(seed)``,
  ``np.random.default_rng(seed)``).  Bare ``random.random()`` /
  ``np.random.<draw>()`` hit the process-global generator and are never
  allowed in ``src``.
* **D003** — ``id(...)`` inside a key-producing function (name matches a
  configured pattern) in a strict module.  ``id()`` values change every
  process: a key derived from one silently defeats cross-run caching and
  makes parity traces unreproducible.

Call matching is import-alias aware: ``import time as _t`` followed by
``_t.time()`` still matches, as does ``from datetime import datetime``
then ``datetime.now()``.
"""

from __future__ import annotations

import ast
import re

from tools.archcheck.config import Config
from tools.archcheck.findings import Finding, Module

#: canonical call path → rule code for wall-clock reads
WALL_CLOCK = {
    "time.time": "D001",
    "time.time_ns": "D001",
    "time.localtime": "D001",
    "time.ctime": "D001",
    "datetime.datetime.now": "D001",
    "datetime.datetime.utcnow": "D001",
    "datetime.datetime.today": "D001",
    "datetime.date.today": "D001",
}

#: RNG constructors that accept a seed as their first positional argument
SEEDED_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
}

#: module-global draw functions — always hit shared unseeded state
GLOBAL_DRAWS_PREFIXES = ("random.", "numpy.random.")
GLOBAL_DRAW_EXCEPTIONS = SEEDED_CONSTRUCTORS | {"random.SystemRandom"}


def _alias_map(tree: ast.Module) -> dict[str, str]:
    """Local name → canonical dotted path, from this module's imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                canonical = _canon_top(alias.name)
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    canonical if alias.asname else canonical.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = canonical
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            base = _canon_top(node.module)
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _canon_top(dotted: str) -> str:
    """``np`` conventions: normalise the numpy top-level name."""
    parts = dotted.split(".")
    if parts[0] == "np":
        parts[0] = "numpy"
    return ".".join(parts)


def _canonical_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Dotted canonical path of a call target, alias-resolved."""
    parts: list[str] = []
    func = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    head = aliases.get(func.id)
    if head is None:
        if not parts:
            return None  # bare builtin/local call — not an import target
        head = func.id
    return _canon_top(".".join([head] + list(reversed(parts))))


def _has_seed_argument(node: ast.Call) -> bool:
    """A non-None first positional arg or a seed= keyword counts."""
    if node.args:
        first = node.args[0]
        return not (
            isinstance(first, ast.Constant) and first.value is None
        )
    return any(
        kw.arg == "seed" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        )
        for kw in node.keywords
    )


def check_determinism(modules: list[Module], config: Config) -> list[Finding]:
    findings: list[Finding] = []
    key_patterns = [re.compile(p) for p in config.key_function_patterns]
    for module in modules:
        strict = config.module_in(module.name, config.determinism_strict)
        allow_reason = config.rng_justification(module.name)
        aliases = _alias_map(module.tree)
        for qualname, fn in _functions_with_qualnames(module.tree):
            is_key_fn = any(p.search(fn.name) for p in key_patterns)
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                canonical = _canonical_call(node, aliases)
                if canonical is None:
                    # bare id() has no attribute chain — handle here
                    if (
                        strict
                        and is_key_fn
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "id"
                        and aliases.get("id") is None
                    ):
                        findings.append(Finding(
                            rule="D003",
                            path=module.rel_path,
                            line=node.lineno,
                            symbol=qualname,
                            message=(
                                f"id() inside key-producing function "
                                f"{fn.name!r}: identity-derived keys "
                                f"change every process and defeat "
                                f"cross-run caching"
                            ),
                            detail=_id_detail(node),
                        ))
                    continue
                if strict and canonical in WALL_CLOCK:
                    findings.append(Finding(
                        rule="D001",
                        path=module.rel_path,
                        line=node.lineno,
                        symbol=qualname,
                        message=(
                            f"wall-clock read {canonical}() in strict "
                            f"module {module.name!r} — plan kernels must "
                            f"be time-independent (use perf_counter for "
                            f"profiling only)"
                        ),
                        detail=canonical,
                    ))
                    continue
                finding = _rng_finding(
                    canonical, node, module, qualname, strict, allow_reason
                )
                if finding is not None:
                    findings.append(finding)
    return findings


def _rng_finding(canonical, node, module, qualname, strict, allow_reason):
    is_constructor = canonical in SEEDED_CONSTRUCTORS
    is_global_draw = (
        canonical.startswith(GLOBAL_DRAWS_PREFIXES)
        and canonical not in GLOBAL_DRAW_EXCEPTIONS
    )
    if not (is_constructor or is_global_draw):
        return None
    if strict:
        return Finding(
            rule="D002",
            path=module.rel_path,
            line=node.lineno,
            symbol=qualname,
            message=(
                f"RNG use {canonical}() in strict module "
                f"{module.name!r}: plan/core kernels must be "
                f"deterministic, seeded or not"
            ),
            detail=canonical,
        )
    if is_global_draw:
        return Finding(
            rule="D002",
            path=module.rel_path,
            line=node.lineno,
            symbol=qualname,
            message=(
                f"{canonical}() draws from the process-global RNG; "
                f"construct a seeded generator instead"
            ),
            detail=canonical,
        )
    # seeded-constructor path: allowlisted modules may build seeded RNGs
    if allow_reason is not None and _has_seed_argument(node):
        return None
    if allow_reason is not None:
        return Finding(
            rule="D002",
            path=module.rel_path,
            line=node.lineno,
            symbol=qualname,
            message=(
                f"{canonical}() without an explicit seed — the RNG "
                f"allowlist for {module.name!r} covers *seeded* "
                f"generators only"
            ),
            detail=canonical,
        )
    return Finding(
        rule="D002",
        path=module.rel_path,
        line=node.lineno,
        symbol=qualname,
        message=(
            f"RNG constructor {canonical}() in module {module.name!r} "
            f"which is not on the seeded-RNG allowlist"
        ),
        detail=canonical,
    )


def _id_detail(node: ast.Call) -> str:
    """Stable-ish discriminator: the argument's source-ish rendering."""
    if node.args:
        try:
            return f"id({ast.unparse(node.args[0])})"
        except Exception:
            return "id(...)"
    return "id()"


def _own_nodes(fn: ast.AST):
    """Walk a function's nodes without descending into nested defs.

    Nested functions are yielded as functions of their own by
    :func:`_functions_with_qualnames`; walking them here too would
    double-report every finding inside them.
    """
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _functions_with_qualnames(tree: ast.Module):
    """Yield (qualname, fn) for every function, class-prefixed."""
    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")
