"""archcheck configuration: the layer DAG and per-rule settings.

The defaults below ARE the project's architecture contract (documented
prose-side in ``docs/ARCHITECTURE.md``).  A ``[tool.archcheck]`` table in
``pyproject.toml`` may override any field — the CI run and the default
CLI invocation load it when the interpreter has :mod:`tomllib`
(Python ≥ 3.11); on 3.10 the identical built-in defaults apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

#: The allowed import DAG, package → packages it may import.  Importing
#: inside your own package is always allowed.  The split mirrors the
#: paper's three serving layers (content management → discovery →
#: presentation, §3) threaded onto the engine stack
#: (core ← indexing ← plan ← api).  ``management`` and ``plan`` never
#: import each other: what both need lives in ``repro.core``.
DEFAULT_LAYERS: dict[str, tuple[str, ...]] = {
    "errors": (),
    "core": ("errors",),
    "workloads": ("core", "errors"),
    "analysis": ("core", "errors"),
    "indexing": ("core", "analysis", "errors"),
    "plan": ("core", "indexing", "errors"),
    "management": ("core", "errors"),
    "discovery": ("core", "plan", "workloads", "errors"),
    "presentation": ("core", "analysis", "discovery", "errors"),
    "api": (
        "core", "analysis", "indexing", "plan", "management",
        "discovery", "presentation", "errors",
    ),
    "serve": ("api", "core", "management", "workloads", "errors"),
    # test-only: fault handlers and chaos schedules.  It may reach down
    # to core (the fault-point registry lives there) but NOTHING in
    # production may import it — rule T001 below enforces the reverse
    # direction explicitly, over and above the DAG's silence.
    "testing": ("core", "errors"),
    "socialscope": (
        "api", "core", "discovery", "management", "presentation", "errors",
    ),
    # the top package's own modules (repro/__init__.py re-exports)
    "repro": ("core", "workloads", "errors"),
}

#: Module prefixes (post layer-root stripping: ``plan``, not
#: ``repro.plan``) where the determinism rules run in full: wall-clock
#: reads, any RNG, and identity-derived cache keys are all findings.
#: Monotonic profiling clocks (``time.perf_counter``) stay legal — they
#: never reach a result or a key.
DEFAULT_DETERMINISM_STRICT: tuple[str, ...] = ("plan", "core")

#: Modules allowed to hold *seeded* RNGs, with the justification the
#: baseline would otherwise carry.  Unseeded RNG stays banned everywhere.
DEFAULT_RNG_ALLOWLIST: dict[str, str] = {
    "workloads": "synthetic-site generators draw from random.Random(seed) "
                 "taken from the workload config; runs are replayable",
    "analysis.lda": "collapsed Gibbs sampling uses one "
                    "np.random.default_rng(seed) per fit; fits are "
                    "reproducible for a given seed",
    "benchmarks": "bench workloads reuse the seeded generators so "
                  "BENCH_plan.json is reproducible run-to-run",
    "serve.loadgen": "the load harness samples tenants/queries from one "
                     "random.Random(seed) per mix; a run's request stream "
                     "is exactly replayable (timing of course is not)",
}

#: Function-name patterns marking "this produces a cache/plan key":
#: ``id()`` inside one of these is nondeterministic across processes and
#: therefore a finding (D003) unless baselined with a justification.
DEFAULT_KEY_FUNCTION_PATTERNS: tuple[str, ...] = (
    r"(^|_)key$",
    r"_keys?$",
    r"_scope$",
    r"_ids$",
    r"^__hash__$",
)

#: Modules whose execute paths must treat input graphs as read-only.
DEFAULT_PURITY_MODULES: tuple[str, ...] = ("plan.columnar", "plan.physical")

#: Graph-mutating method names the purity rule watches for.
DEFAULT_PURITY_MUTATORS: tuple[str, ...] = (
    "add_node", "add_link", "remove_node", "remove_link", "remove_nodes",
    "remove_links",
)

#: Packages whose every ``def`` must be fully annotated (rule A001): the
#: ones other layers call into, checked with the stdlib AST so the gate
#: runs wherever the tests do.  A fixed scope, not a setting.
ANNOTATED_MODULES: tuple[str, ...] = (
    "plan", "api", "presentation", "serve", "indexing", "workloads",
)

#: Modules that run per request *above* the plan: everything between the
#: ranked window and the rendered page.  They may not iterate the whole
#: site (rule P002).
DEFAULT_SITE_SCAN_MODULES: tuple[str, ...] = ("presentation", "discovery.msg")

#: Stdlib/third-party import prefix → the one module prefix (post
#: layer-root stripping) allowed to import it; an empty owner bans the
#: import everywhere.  ``multiprocessing`` has no owner: a scan runs on
#: the calling thread, and a spawner would bring worker lifecycle, pipe
#: protocol and shared-memory ownership back with it.
DEFAULT_RESTRICTED_IMPORTS: dict[str, str] = {
    "multiprocessing": "",
}

#: Packages only tests/benches may import (rule T001): production code
#: importing one of these could arm fault handlers in a serving process.
#: The fault-point *hooks* (``repro.core.faults``) are production-legal —
#: they compile to a ``None``-check when nothing is armed — but the
#: *handlers* (``repro.testing``) must stay out of production closures.
DEFAULT_TEST_ONLY_PACKAGES: tuple[str, ...] = ("testing",)


@dataclass
class Config:
    """Everything the rule families read; see module docstring."""

    layer_root: str = "repro"
    layers: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERS)
    )
    determinism_strict: tuple[str, ...] = DEFAULT_DETERMINISM_STRICT
    rng_allowlist: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_RNG_ALLOWLIST)
    )
    key_function_patterns: tuple[str, ...] = DEFAULT_KEY_FUNCTION_PATTERNS
    purity_modules: tuple[str, ...] = DEFAULT_PURITY_MODULES
    purity_mutators: tuple[str, ...] = DEFAULT_PURITY_MUTATORS
    site_scan_modules: tuple[str, ...] = DEFAULT_SITE_SCAN_MODULES
    restricted_imports: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_RESTRICTED_IMPORTS)
    )
    test_only_packages: tuple[str, ...] = DEFAULT_TEST_ONLY_PACKAGES

    def module_in(self, name: str, prefixes: tuple[str, ...]) -> bool:
        """True when dotted *name* equals or nests under any prefix."""
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in prefixes
        )

    def rng_justification(self, name: str) -> str | None:
        """The allowlist justification covering *name*, if any."""
        for prefix, reason in self.rng_allowlist.items():
            if name == prefix or name.startswith(prefix + "."):
                return reason
        return None


def load_config(pyproject: Path | None = None) -> Config:
    """The defaults, overlaid with ``[tool.archcheck]`` when readable."""
    config = Config()
    if pyproject is None or not pyproject.is_file():
        return config
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: defaults mirror pyproject
        return config
    table = (
        tomllib.loads(pyproject.read_text(encoding="utf-8"))
        .get("tool", {})
        .get("archcheck", {})
    )
    if "layer_root" in table:
        config.layer_root = str(table["layer_root"])
    if "layers" in table:
        config.layers = {
            package: tuple(allowed)
            for package, allowed in table["layers"].items()
        }
    if "determinism_strict" in table:
        config.determinism_strict = tuple(table["determinism_strict"])
    if "rng_allowlist" in table:
        config.rng_allowlist = dict(table["rng_allowlist"])
    if "key_function_patterns" in table:
        config.key_function_patterns = tuple(table["key_function_patterns"])
    if "purity_modules" in table:
        config.purity_modules = tuple(table["purity_modules"])
    if "purity_mutators" in table:
        config.purity_mutators = tuple(table["purity_mutators"])
    if "site_scan_modules" in table:
        config.site_scan_modules = tuple(table["site_scan_modules"])
    if "restricted_imports" in table:
        config.restricted_imports = dict(table["restricted_imports"])
    if "test_only_packages" in table:
        config.test_only_packages = tuple(table["test_only_packages"])
    return config
