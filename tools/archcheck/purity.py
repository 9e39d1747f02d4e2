"""Rule family P: what request paths may do with their input graphs.

* **P001** — a configured purity module calls a graph-mutating method
  (``add_node``, ``add_link``, ``remove_*``) on an object it did not
  construct locally.  The columnar view exists precisely so
  operators stop materialising intermediate graphs; an operator that
  mutates its *input* graph corrupts every other plan sharing the
  snapshot (the planner hands out the same objects under a generation
  stamp, not copies).

A receiver counts as *locally constructed* (and therefore fair game)
when, within the same function, the name was assigned from a direct
constructor call (``g = Graph(...)``, ``out = SiteGraph()``) or from a
``.copy()`` / ``copy.deepcopy`` call.  Everything else — parameters,
attributes, comprehension results, returns of helper functions — is
treated as shared input.  This under-approximates "fresh" on purpose:
a helper that returns a new graph still gets flagged until the
construction is made visible, which keeps the audit trail honest.

* **P002** — a module above the plan (``repro.presentation``,
  ``repro.discovery.msg``) calls ``.links()``, ``.nodes()``,
  ``nodes_of_type(`` or ``links_of_type(``: a pass over the *whole site*
  on a path that runs per request.  Everything between the ranked window
  and the rendered page must cost the window's neighbourhood — read a
  node's own ``in_links`` / ``out_links`` (or the graph's activity
  relation, ``graph.activity()``) instead.  The rule is syntactic on purpose: it does not
  try to prove the receiver is a graph, and the modules in scope have no
  other use for these names.
"""

from __future__ import annotations

import ast

from tools.archcheck.config import Config
from tools.archcheck.findings import Finding, Module

FRESH_SOURCES = {"copy", "deepcopy"}

#: the whole-site iterators of ``SocialContentGraph`` P002 watches for
SITE_SCANS = {"links", "nodes", "nodes_of_type", "links_of_type"}


def _fresh_locals(fn: ast.AST) -> set[str]:
    """Names assigned from an obvious fresh-object construction."""
    fresh: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        func = value.func
        is_fresh = False
        if isinstance(func, ast.Name) and func.id[:1].isupper():
            is_fresh = True  # direct constructor call by convention
        elif isinstance(func, ast.Attribute):
            if func.attr in FRESH_SOURCES:
                is_fresh = True
            elif func.attr[:1].isupper():
                is_fresh = True  # module-qualified constructor
        if not is_fresh:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                fresh.add(target.id)
    return fresh


def check_purity(modules: list[Module], config: Config) -> list[Finding]:
    findings: list[Finding] = _check_site_scans(modules, config)
    mutators = set(config.purity_mutators)
    for module in modules:
        if not config.module_in(module.name, config.purity_modules):
            continue
        for qualname, fn in _functions(module.tree):
            fresh = _fresh_locals(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in mutators:
                    continue
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id in fresh:
                    continue
                try:
                    receiver_src = ast.unparse(receiver)
                except Exception:
                    receiver_src = "<expr>"
                findings.append(Finding(
                    rule="P001",
                    path=module.rel_path,
                    line=node.lineno,
                    symbol=qualname,
                    message=(
                        f"{receiver_src}.{func.attr}() mutates a graph "
                        f"the function did not construct — execute paths "
                        f"in {module.name!r} must treat inputs as "
                        f"read-only snapshots"
                    ),
                    detail=f"{receiver_src}.{func.attr}",
                ))
    return findings


def _check_site_scans(modules: list[Module], config: Config) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if not config.module_in(module.name, config.site_scan_modules):
            continue
        for qualname, fn in _functions(module.tree):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute):
                    name = func.attr
                elif isinstance(func, ast.Name):
                    name = func.id
                else:
                    continue
                if name not in SITE_SCANS:
                    continue
                findings.append(Finding(
                    rule="P002",
                    path=module.rel_path,
                    line=node.lineno,
                    symbol=qualname,
                    message=(
                        f"{ast.unparse(func)}() walks the whole site on a "
                        f"per-request path — {module.name!r} must read a "
                        f"node's own in_links/out_links (or the activity "
                        f"relation), never every link or node"
                    ),
                    detail=name,
                ))
    return findings


def _functions(tree: ast.Module):
    def walk(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")
