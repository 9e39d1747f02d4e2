"""archcheck: AST architecture linter for the SocialScope reproduction.

Five rule families (see the sibling modules for the rule catalogue):

* ``layering``     — L001/L002/L003, the allowed import DAG
* ``concurrency``  — C001/C002/C003, lock discipline
* ``determinism``  — D001/D002/D003, plan-kernel determinism
* ``purity``       — P001, read-only input graphs on execute paths;
  P002, no whole-site iteration per request above the plan
* ``annotations``  — A001, every def of the typed packages fully annotated

plus :mod:`tools.archcheck.racetrack`, a dynamic Eraser-style lockset
race detector used by the thread-storm tests.

Run ``python -m tools.archcheck src/`` from the repo root.
"""

from tools.archcheck.findings import Finding, Module, collect_modules
from tools.archcheck.runner import Report, check_paths, run_check, run_rules

__all__ = [
    "Finding",
    "Module",
    "Report",
    "check_paths",
    "collect_modules",
    "run_check",
    "run_rules",
]
