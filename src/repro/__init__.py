"""repro — a full reproduction of *SocialScope: Enabling Information
Discovery on Social Content Sites* (Amer-Yahia, Lakshmanan, Yu; CIDR 2009).

The library implements the paper's three-layer architecture end to end:

* :mod:`repro.core` — the social content graph model and the paper's
  algebra (selections, set operators, composition, semi-join, SAF/NAF
  aggregation, graph-pattern aggregation, plans + optimizer);
* :mod:`repro.analysis` — the Content Analyzer (LDA topics, association
  rules, derived similarity links);
* :mod:`repro.discovery` — the Information Discoverer (query model and
  classifier, semantic + social relevance, Meaningful Social Graphs);
* :mod:`repro.management` — the Content Management layer (storage,
  OpenSocial-style integration, the three management models, activity-driven
  sync);
* :mod:`repro.indexing` — §6.2's network-aware inverted indexes, user
  clustering strategies, top-k pruning, and the semantic item index;
* :mod:`repro.presentation` — §7's grouping, ranking and explanations;
* :mod:`repro.workloads` — synthetic social-content-site workloads
  (Y!Travel-like, del.icio.us-like) and the Table 1 query generator;
* :mod:`repro.api` — the session-based query API: structured
  :class:`~repro.api.SearchRequest`/:class:`~repro.api.SearchResponse`
  values, the fluent :class:`~repro.api.QueryBuilder`, and the warm
  :class:`~repro.api.Session` engine (pagination, index-backed
  discovery);
* :mod:`repro.serve` — the concurrent serving front: the asyncio
  :class:`~repro.serve.ServeGateway` with per-tenant admission control
  and priority dispatch, plus the closed-loop load harness
  (:mod:`repro.serve.loadgen`);
* :class:`repro.socialscope.SocialScope` — the stable facade over one
  session (Figure 1).

Quickstart::

    from repro import Session
    from repro.workloads import TravelSiteConfig, build_travel_site

    site = build_travel_site(TravelSiteConfig(seed=42))
    session = Session.from_graph(site.graph)

    response = (session.query(site.personas["john"])
                .text("Denver attractions")
                .limit(10)
                .run())
    for group in response.groups:
        print(group.label, [e.item_id for e in group.entries])

    # Deterministic pagination over the same ranking:
    page2 = (session.query(site.personas["john"])
             .text("Denver attractions")
             .page_size(5).page(2)
             .run())

Migration from the pre-session facade (still supported, now a thin shim)::

    scope.search(u, "denver", k=10)   ->  session.query(u).text("denver").limit(10).run().page
    scope.recommend(u, k=5)           ->  session.query(u).limit(5).run().page
    scope.discover(u, "denver")       ->  session.discover(SearchRequest(user_id=u, text="denver"))
    scope.explore(u, "denver")        ->  session.explore(SearchRequest(user_id=u, text="denver"))
    SocialScopeConfig(...)            ->  SessionConfig(...)  (same fields)
"""

from repro.core import (
    Condition,
    Link,
    Node,
    SocialContentGraph,
    aggregate_links,
    aggregate_nodes,
    compose,
    intersection,
    link_minus,
    minus,
    select_links,
    select_nodes,
    semi_join,
    union,
)

__version__ = "1.1.0"

__all__ = [
    "Node",
    "Link",
    "SocialContentGraph",
    "Condition",
    "select_nodes",
    "select_links",
    "union",
    "intersection",
    "minus",
    "link_minus",
    "semi_join",
    "compose",
    "aggregate_nodes",
    "aggregate_links",
    "SocialScope",
    "Session",
    "SessionConfig",
    "SearchRequest",
    "SearchResponse",
    "QueryBuilder",
    "ServeGateway",
    "GatewayConfig",
    "__version__",
]

#: Lazy attribute -> providing module.  The facade and session pull in
#: every layer; keep `import repro` cheap for users who only need the
#: algebra.
_LAZY = {
    "SocialScope": "repro.socialscope",
    "Session": "repro.api",
    "SessionConfig": "repro.api",
    "SearchRequest": "repro.api",
    "SearchResponse": "repro.api",
    "QueryBuilder": "repro.api",
    "ServeGateway": "repro.serve",
    "GatewayConfig": "repro.serve",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is not None:
        from importlib import import_module

        return getattr(import_module(module_name), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
