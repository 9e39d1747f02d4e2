"""archcheck self-tests: each rule family fires on its violation fixture
and stays silent on the clean tree.

The fixtures live under ``fixtures/<case>/app/...`` — tiny source trees
with exactly the violations their docstrings name.  A linter whose
rules can't demonstrably fire is worse than no linter: it reports
"clean" forever.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from tools.archcheck.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from tools.archcheck.config import ANNOTATED_MODULES, Config, load_config
from tools.archcheck.findings import collect_modules
from tools.archcheck.runner import RULE_FAMILIES, run_rules

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_config() -> Config:
    return Config(
        layer_root="app",
        layers={
            "core": (),
            "plan": ("core",),
            "serve": ("core",),
            "testing": ("core",),
        },
        determinism_strict=("plan",),
        rng_allowlist={},
        purity_modules=("plan.columnar",),
        site_scan_modules=("presentation", "discovery.msg"),
        restricted_imports={"multiprocessing": "plan.parallel"},
    )


def run_on(case: str, *families: str):
    root = FIXTURES / case
    modules = collect_modules(root, root, layer_root="app")
    assert modules, f"fixture {case!r} collected no modules"
    return run_rules(modules, fixture_config(), families)


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestLayering:
    def test_upward_import_cycle_and_undeclared_package_fire(self):
        findings = run_on("layering", "layering")
        assert rules_of(findings) == {"L001", "L002", "L003"}
        upward = next(f for f in findings if f.rule == "L001")
        assert upward.symbol == "core->plan"
        cycle = next(f for f in findings if f.rule == "L002")
        assert "core" in cycle.message and "plan" in cycle.message

    def test_allowed_downward_edge_is_silent(self):
        findings = run_on("layering", "layering")
        assert not any(
            f.rule == "L001" and f.symbol == "plan->core" for f in findings
        )


class TestRestrictedImports:
    def test_multiprocessing_outside_its_owner_fires(self):
        findings = run_on("restricted", "layering")
        l004 = [f for f in findings if f.rule == "L004"]
        assert {f.symbol for f in l004} == {"core->multiprocessing"}
        assert "plan.parallel" in l004[0].message

    def test_owning_module_is_silent(self):
        findings = run_on("restricted", "layering")
        assert not any(
            f.rule == "L004" and f.path.endswith("parallel.py")
            for f in findings
        )

    def test_ownerless_prefix_is_banned_everywhere(self):
        """The repo's own setting: no module may import multiprocessing."""
        from tools.archcheck.config import DEFAULT_RESTRICTED_IMPORTS

        assert DEFAULT_RESTRICTED_IMPORTS == {"multiprocessing": ""}
        config = fixture_config()
        config.restricted_imports = dict(DEFAULT_RESTRICTED_IMPORTS)
        root = FIXTURES / "restricted"
        modules = collect_modules(root, root, layer_root="app")
        l004 = [f for f in run_rules(modules, config, ("layering",))
                if f.rule == "L004"]
        assert {f.symbol for f in l004} == {
            "core->multiprocessing", "plan.parallel->multiprocessing",
        }
        assert all("banned" in f.message for f in l004)

    def test_submodules_of_the_prefix_are_covered(self):
        import ast

        from tools.archcheck.findings import Module
        from tools.archcheck.layering import check_layering

        tree = ast.parse("from multiprocessing.shared_memory "
                         "import SharedMemory\n")
        module = Module(path=Path("serve/gateway.py"),
                        rel_path="serve/gateway.py",
                        name="serve.gateway", tree=tree)
        findings = check_layering([module], fixture_config())
        assert any(f.rule == "L004" for f in findings)


class TestTestOnlyImports:
    def test_production_import_of_test_only_package_fires(self):
        findings = run_on("testonly", "layering")
        t001 = [f for f in findings if f.rule == "T001"]
        assert {f.symbol for f in t001} == {"serve->testing"}
        assert "fault handlers" in t001[0].message

    def test_test_only_package_may_import_itself_and_core(self):
        findings = run_on("testonly", "layering")
        assert not any(
            f.rule == "T001" and "/testing/" in f.path.replace("\\", "/")
            for f in findings
        )

    def test_disabled_when_no_test_only_packages_declared(self):
        root = FIXTURES / "testonly"
        modules = collect_modules(root, root, layer_root="app")
        config = fixture_config()
        config.test_only_packages = ()
        findings = run_rules(modules, config, ("layering",))
        assert not any(f.rule == "T001" for f in findings)


class TestConcurrency:
    def test_locked_suffix_call_without_lock_fires(self):
        findings = run_on("concurrency", "concurrency")
        c001 = [f for f in findings if f.rule == "C001"]
        assert len(c001) == 1
        assert c001[0].symbol == "Cache.drop"
        assert "self._drop_locked" in c001[0].detail

    def test_unguarded_write_to_guarded_attribute_fires(self):
        findings = run_on("concurrency", "concurrency")
        c003 = [f for f in findings if f.rule == "C003"]
        assert len(c003) == 1
        assert c003[0].symbol == "Cache.reset"
        assert c003[0].detail == "hits"

    def test_lock_order_inversion_fires(self):
        findings = run_on("concurrency", "concurrency")
        c002 = [f for f in findings if f.rule == "C002"]
        assert len(c002) == 1
        assert "a_lock" in c002[0].detail and "b_lock" in c002[0].detail

    def test_locked_writes_under_lock_are_silent(self):
        # get/put mutate hits/entries under the lock; only reset fires
        findings = run_on("concurrency", "concurrency")
        assert not any(
            f.symbol in ("Cache.get", "Cache.put") for f in findings
        )


class TestDeterminism:
    def test_wall_clock_rng_and_id_key_fire(self):
        findings = run_on("determinism", "determinism")
        assert rules_of(findings) == {"D001", "D002", "D003"}
        by_rule = {f.rule: f for f in findings}
        assert by_rule["D001"].detail == "time.time"
        assert by_rule["D002"].detail == "random.random"
        assert by_rule["D003"].symbol == "plan_key"

    def test_monotonic_clock_is_silent(self):
        findings = run_on("determinism", "determinism")
        assert not any(f.symbol == "profiled" for f in findings)


class TestPurity:
    def test_input_graph_mutation_fires(self):
        findings = run_on("purity", "purity")
        assert rules_of(findings) == {"P001"}
        assert len(findings) == 1
        assert findings[0].symbol == "scatter"
        assert findings[0].detail == "graph.add_node"

    def test_fresh_local_graph_is_silent(self):
        findings = run_on("purity", "purity")
        assert not any(f.symbol == "materialize" for f in findings)


class TestSiteScans:
    def test_whole_site_iteration_above_the_plan_fires(self):
        findings = run_on("sitescan", "purity")
        assert rules_of(findings) == {"P002"}
        assert {(f.symbol, f.detail) for f in findings} == {
            ("membership", "links"),
            ("population", "nodes_of_type"),
            ("cut", "links_of_type"),
            ("links_of_type", "nodes"),
        }
        assert all("whole site" in f.message for f in findings)

    def test_adjacency_reads_and_out_of_scope_modules_are_silent(self):
        findings = run_on("sitescan", "purity")
        assert not any(f.symbol == "taggers" for f in findings)
        assert not any(f.path.endswith("query.py") for f in findings)

    def test_repo_scope_is_presentation_and_the_msg_cut(self):
        """The repo's own setting, with nothing grandfathered."""
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config.site_scan_modules == ("presentation", "discovery.msg")
        modules = collect_modules(
            REPO_ROOT / "src", REPO_ROOT, layer_root=config.layer_root
        )
        in_scope = [m for m in modules if config.module_in(
            m.name, config.site_scan_modules
        )]
        assert {m.name for m in in_scope} >= {
            "presentation.explanations", "presentation.grouping",
            "presentation.organizer", "discovery.msg",
        }
        assert run_rules(in_scope, config, ("purity",)) == []


class TestAnnotations:
    def test_unannotated_signatures_fire(self):
        findings = run_on("annotations", "annotations")
        assert rules_of(findings) == {"A001"}
        assert {(f.symbol, f.detail) for f in findings} == {
            ("scale", "factor"),
            ("total", "return"),
            ("gather", "*parts,**named"),
            ("outer.inner", "y,return"),
        }

    def test_exemptions_and_out_of_scope_modules_are_silent(self):
        findings = run_on("annotations", "annotations")
        assert not any(f.symbol.startswith("Box") for f in findings)
        assert not any(f.path.endswith("core.py") for f in findings)

    def test_repo_scope_has_nothing_grandfathered(self):
        """The repo's scope: the packages other layers call into."""
        assert ANNOTATED_MODULES == (
            "plan", "api", "presentation", "serve", "indexing", "workloads",
        )
        config = load_config(REPO_ROOT / "pyproject.toml")
        modules = collect_modules(
            REPO_ROOT / "src", REPO_ROOT, layer_root=config.layer_root
        )
        findings = run_rules(modules, config, ("annotations",))
        assert findings == [], [f.render() for f in findings]


class TestCleanFixture:
    def test_every_family_is_silent(self):
        findings = run_on("clean", *RULE_FAMILIES)
        assert findings == []


class TestBaseline:
    def test_matching_entry_suppresses_and_stale_entry_surfaces(self):
        findings = run_on("purity", "purity")
        entries = [
            BaselineEntry(
                fingerprint=findings[0].fingerprint(),
                reason="fixture: known mutation",
            ),
            BaselineEntry(
                fingerprint="P001:gone.py:nobody:nothing",
                reason="fixture: paid-off debt",
            ),
        ]
        active, suppressed, stale = apply_baseline(findings, entries)
        assert active == []
        assert suppressed == findings
        assert [entry.fingerprint for entry in stale] == [
            "P001:gone.py:nobody:nothing"
        ]

    def test_reasonless_entries_are_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            '{"suppressions": [{"fingerprint": "X:y:z:", "reason": " "}]}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="no reason"):
            load_baseline(path)

    def test_repo_baseline_is_loadable_and_justified(self):
        entries = load_baseline(
            REPO_ROOT / "tools" / "archcheck" / "baseline.json"
        )
        assert all(entry.reason.strip() for entry in entries)
        # the ratchet only holds if every entry is a D003 key-identity
        # grandfather — anything else must be fixed, not baselined
        assert all(
            entry.fingerprint.startswith("D003:") for entry in entries
        )


class TestRepoTree:
    """The real src/ tree passes archcheck end to end (CI runs the same)."""

    def test_cli_is_green_on_src(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.archcheck", "src/"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_cli_rejects_unknown_rule_family(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.archcheck", "src/",
             "--rules", "astrology"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "astrology" in result.stderr

    def test_observed_layering_matches_declared_dag(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        modules = collect_modules(
            REPO_ROOT / "src", REPO_ROOT, layer_root=config.layer_root
        )
        findings = run_rules(modules, config, ("layering",))
        assert findings == [], [f.render() for f in findings]
