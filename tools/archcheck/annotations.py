"""Rule family A: the typed packages annotate every function.

* **A001** — a ``def`` in a configured module leaves a parameter or its
  return type unannotated.  ``self`` / ``cls`` as the first parameter of
  a method, and the return of ``__init__``, are exempt, as they are for
  mypy's ``disallow_untyped_defs``.  Nested functions count: they are
  where a closure's contract is easiest to lose.

This is a local type gate that needs nothing beyond the stdlib ``ast``:
it does not check that the annotations are *right* (that is mypy's job,
where it is installed), only that every signature in the packages other
layers call into says what it takes and returns.  For ``plan``, ``api``
and ``serve`` it repeats mypy's ``disallow_untyped_defs`` by design: the
scope is one list of packages, and this half of the gate also runs where
mypy is not installed.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.archcheck.config import ANNOTATED_MODULES, Config
from tools.archcheck.findings import Finding, Module

FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef


def check_annotations(modules: list[Module], config: Config) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        if not config.module_in(module.name, ANNOTATED_MODULES):
            continue
        for qualname, fn, is_method in _defs(module.tree, ""):
            missing = _unannotated(fn, is_method)
            if not missing:
                continue
            findings.append(Finding(
                rule="A001",
                path=module.rel_path,
                line=fn.lineno,
                symbol=qualname,
                message=(
                    f"{qualname}() leaves {', '.join(missing)} unannotated "
                    f"— every def in {module.name!r} is fully annotated"
                ),
                detail=",".join(missing),
            ))
    return findings


def _unannotated(fn: FunctionDef, is_method: bool) -> list[str]:
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    if is_method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    missing = [
        arg.arg for arg in (*positional, *args.kwonlyargs)
        if arg.annotation is None
    ]
    for star, arg in (("*", args.vararg), ("**", args.kwarg)):
        if arg is not None and arg.annotation is None:
            missing.append(star + arg.arg)
    if fn.returns is None and fn.name != "__init__":
        missing.append("return")
    return missing


def _defs(
    node: ast.AST, prefix: str, in_class: bool = False
) -> Iterator[tuple[str, FunctionDef, bool]]:
    """Every def under *node* with its qualname and whether it is a
    method (defined in a class body)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.", in_class=True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{child.name}"
            yield name, child, in_class
            yield from _defs(child, f"{name}.")
        else:
            yield from _defs(child, prefix, in_class)
