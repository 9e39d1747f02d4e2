"""Orchestrates the rule families over a source tree.

Library entry point is :func:`run_check`; the CLI in ``__main__``
wraps it.  Kept separate so the archcheck self-tests (and the
benchmarks conftest gate) can run individual rule families over fixture
trees without shelling out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from tools.archcheck.annotations import check_annotations
from tools.archcheck.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from tools.archcheck.concurrency import check_concurrency
from tools.archcheck.config import Config, load_config
from tools.archcheck.determinism import check_determinism
from tools.archcheck.findings import Finding, Module, collect_modules
from tools.archcheck.layering import check_layering
from tools.archcheck.purity import check_purity

RULE_FAMILIES = {
    "layering": check_layering,
    "concurrency": check_concurrency,
    "determinism": check_determinism,
    "purity": check_purity,
    "annotations": check_annotations,
}


@dataclass
class Report:
    """Outcome of one archcheck run."""

    active: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale: list[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.active and not self.stale

    def render(self) -> str:
        lines: list[str] = []
        for finding in sorted(
            self.active, key=lambda f: (f.path, f.line, f.rule)
        ):
            lines.append(finding.render())
        for finding in sorted(
            self.suppressed, key=lambda f: (f.path, f.line, f.rule)
        ):
            lines.append(f"[baselined] {finding.render()}")
        for entry in self.stale:
            lines.append(
                f"STALE baseline entry {entry.fingerprint!r}: no finding "
                f"matches it any more — delete it ({entry.reason})"
            )
        lines.append(
            f"archcheck: {len(self.active)} active, "
            f"{len(self.suppressed)} baselined, "
            f"{len(self.stale)} stale baseline entries"
        )
        return "\n".join(lines)


def run_rules(
    modules: list[Module],
    config: Config,
    rules: tuple[str, ...] = tuple(RULE_FAMILIES),
) -> list[Finding]:
    """Raw findings from the selected rule families, baseline-free."""
    findings: list[Finding] = []
    for name in rules:
        findings.extend(RULE_FAMILIES[name](modules, config))
    return findings


def check_paths(
    paths: list[Path],
    repo_root: Path,
    config: Config,
    rules: tuple[str, ...] = tuple(RULE_FAMILIES),
    baseline_path: Path | None = None,
) -> Report:
    modules: list[Module] = []
    for path in paths:
        root = path if path.is_dir() else path.parent
        modules.extend(
            collect_modules(root, repo_root, layer_root=config.layer_root)
        )
    findings = run_rules(modules, config, rules)
    entries = load_baseline(baseline_path) if baseline_path else []
    active, suppressed, stale = apply_baseline(findings, entries)
    return Report(active=active, suppressed=suppressed, stale=stale)


def run_check(
    paths: list[str],
    repo_root: Path | None = None,
    rules: tuple[str, ...] = tuple(RULE_FAMILIES),
    baseline: str | None = "tools/archcheck/baseline.json",
) -> Report:
    """CLI-shaped wrapper: strings in, config discovered from pyproject."""
    root = repo_root or Path.cwd()
    config = load_config(root / "pyproject.toml")
    baseline_path = (root / baseline) if baseline else None
    return check_paths(
        [Path(p) if Path(p).is_absolute() else root / p for p in paths],
        repo_root=root,
        config=config,
        rules=rules,
        baseline_path=baseline_path,
    )
