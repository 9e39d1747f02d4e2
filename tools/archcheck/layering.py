"""Rule family L: the allowed import DAG.

* **L001** — an import crosses a package edge the DAG does not allow
  (includes every "upward" import by construction: upward edges are
  simply absent from the allowed map).
* **L002** — the *observed* package import graph contains a cycle.
  Reported even when every individual edge is allowed: a configuration
  that legalised a cycle is itself a finding.
* **L003** — an import targets a package the DAG has no entry for
  (usually a new package nobody declared a layer for).
* **L004** — a *restricted* external import (``config.restricted_imports``)
  appears outside its one owning module, or anywhere at all when it has
  no owner.  ``multiprocessing`` is the motivating case: nothing under
  ``src/`` may import it, so process lifecycle, pipe protocol and
  shared-memory ownership cannot grow back unreviewed.
* **T001** — production code imports a *test-only* package
  (``config.test_only_packages``, by default ``repro.testing``).  The
  fault-injection handlers live there; a production module importing
  them could arm faults in a serving process, so the guarantee
  "production never arms faults" is enforced as an import ban (the
  layer DAG is silent about the edge; this rule rejects it by name).

Only imports of the project's own top package are considered; stdlib and
third-party imports are out of scope here (the determinism rules own
those).  ``TYPE_CHECKING``-guarded imports count: a typing-only upward
import still couples the layers in every reader's head, and one
refactor away from coupling them at runtime.
"""

from __future__ import annotations

import ast

from tools.archcheck.config import Config
from tools.archcheck.findings import Finding, Module


def _imported_modules(tree: ast.Module, top: str) -> list[tuple[str, int]]:
    """(dotted target, line) for every project-internal import."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == top or alias.name.startswith(top + "."):
                    out.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: resolve below
                out.append(("." * node.level + (node.module or ""),
                            node.lineno))
            elif node.module and (
                node.module == top or node.module.startswith(top + ".")
            ):
                out.append((node.module, node.lineno))
    return out


def _target_package(target: str, importer: Module, top: str) -> str | None:
    """Layer name a dotted import target lands in, or None if external."""
    if target.startswith("."):
        # relative import: stays inside the importer's own package
        return importer.package
    parts = target.split(".")
    if top:
        if parts[0] != top:
            return None
        parts = parts[1:]
    if not parts:
        return top or None  # "import repro" itself
    return parts[0]


def check_layering(modules: list[Module], config: Config) -> list[Finding]:
    findings: list[Finding] = []
    observed: dict[str, dict[str, tuple[str, int]]] = {}
    top = config.layer_root
    for module in modules:
        source = module.package
        for target_module, line in _imported_modules(module.tree, top):
            target = _target_package(target_module, module, top)
            if target is None or target == source:
                continue
            observed.setdefault(source, {}).setdefault(
                target, (module.rel_path, line)
            )
            if source not in config.layers or target not in config.layers:
                missing = source if source not in config.layers else target
                findings.append(Finding(
                    rule="L003",
                    path=module.rel_path,
                    line=line,
                    symbol=f"{source}->{target}",
                    message=(
                        f"package {missing!r} has no layer declared in the "
                        f"import DAG (import of {target_module!r})"
                    ),
                    detail=target_module,
                ))
                continue
            if target not in config.layers[source]:
                findings.append(Finding(
                    rule="L001",
                    path=module.rel_path,
                    line=line,
                    symbol=f"{source}->{target}",
                    message=(
                        f"layer {source!r} may not import {target!r} "
                        f"(import of {target_module!r}); allowed: "
                        f"{sorted(config.layers[source])}"
                    ),
                    detail=target_module,
                ))
    findings.extend(_find_cycles(observed))
    findings.extend(_check_restricted_imports(modules, config))
    findings.extend(_check_test_only_imports(modules, config))
    return findings


def _check_test_only_imports(
    modules: list[Module], config: Config
) -> list[Finding]:
    """T001: production modules importing a test-only package."""
    findings: list[Finding] = []
    if not config.test_only_packages:
        return findings
    top = config.layer_root
    for module in modules:
        if module.package in config.test_only_packages:
            continue  # the test-only package may import itself
        for target_module, line in _imported_modules(module.tree, top):
            target = _target_package(target_module, module, top)
            if target is None or target not in config.test_only_packages:
                continue
            findings.append(Finding(
                rule="T001",
                path=module.rel_path,
                line=line,
                symbol=f"{module.package}->{target}",
                message=(
                    f"production module imports test-only package "
                    f"{target!r} (import of {target_module!r}): fault "
                    f"handlers must never be armable from serving code"
                ),
                detail=target_module,
            ))
    return findings


def _check_restricted_imports(
    modules: list[Module], config: Config
) -> list[Finding]:
    """L004: restricted external imports outside their owning module.

    An empty owner matches no module, so every import of the prefix is
    a finding.
    """
    findings: list[Finding] = []
    if not config.restricted_imports:
        return findings
    for module in modules:
        for target, line in _external_imports(module.tree):
            for prefix, owner in config.restricted_imports.items():
                if target != prefix and not target.startswith(prefix + "."):
                    continue
                if config.module_in(module.name, (owner,)):
                    continue
                findings.append(Finding(
                    rule="L004",
                    path=module.rel_path,
                    line=line,
                    symbol=f"{module.name}->{prefix}",
                    message=(
                        f"import of {target!r} is restricted to "
                        f"{owner!r}; route through its API instead"
                        if owner else
                        f"import of {target!r} is banned: no module "
                        f"owns {prefix!r}"
                    ),
                    detail=target,
                ))
    return findings


def _external_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(dotted target, line) for every absolute import in the module."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if not node.level and node.module:
                out.append((node.module, node.lineno))
    return out


def _find_cycles(
    observed: dict[str, dict[str, tuple[str, int]]]
) -> list[Finding]:
    """One L002 finding per distinct package cycle in the observed graph."""
    findings: list[Finding] = []
    seen_cycles: set[tuple[str, ...]] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color = {package: WHITE for package in observed}
    stack: list[str] = []

    def visit(package: str) -> None:
        color[package] = GREY
        stack.append(package)
        for target in sorted(observed.get(package, ())):
            if color.get(target, WHITE) == GREY:
                cycle = tuple(stack[stack.index(target):]) + (target,)
                # canonicalise rotation so each cycle reports once
                pivot = cycle.index(min(cycle[:-1]))
                canonical = cycle[pivot:-1] + cycle[:pivot]
                if canonical in seen_cycles:
                    continue
                seen_cycles.add(canonical)
                path, line = observed[package][target]
                findings.append(Finding(
                    rule="L002",
                    path=path,
                    line=line,
                    symbol="->".join(canonical + (canonical[0],)),
                    message=(
                        "package import cycle: "
                        + " -> ".join(cycle)
                    ),
                ))
            elif color.get(target, WHITE) == WHITE and target in observed:
                visit(target)
        stack.pop()
        color[package] = BLACK

    for package in sorted(observed):
        if color[package] == WHITE:
            visit(package)
    return findings
