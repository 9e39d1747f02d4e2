"""CLI: ``python -m tools.archcheck src/``.

Exit codes: 0 clean (baselined findings allowed), 1 active findings or
stale baseline entries, 2 usage/configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.archcheck.runner import RULE_FAMILIES, run_check


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.archcheck",
        description="Architecture linter: layering, lock discipline, "
                    "determinism, input purity and annotations.",
    )
    parser.add_argument(
        "paths", nargs="+",
        help="source roots to scan (e.g. src/)",
    )
    parser.add_argument(
        "--rules", default=",".join(RULE_FAMILIES),
        help="comma-separated rule families to run "
             f"(default: all of {', '.join(RULE_FAMILIES)})",
    )
    parser.add_argument(
        "--baseline", default="tools/archcheck/baseline.json",
        help="baseline suppression file, repo-relative "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file; report every finding as active",
    )
    args = parser.parse_args(argv)

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    unknown = [r for r in rules if r not in RULE_FAMILIES]
    if unknown:
        print(
            f"archcheck: unknown rule families {unknown}; "
            f"known: {sorted(RULE_FAMILIES)}",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"archcheck: no such path: {missing}", file=sys.stderr)
        return 2

    try:
        report = run_check(
            args.paths,
            repo_root=Path.cwd(),
            rules=rules,
            baseline=None if args.no_baseline else args.baseline,
        )
    except ValueError as exc:  # malformed baseline
        print(f"archcheck: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
