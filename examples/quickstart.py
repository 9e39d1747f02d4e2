#!/usr/bin/env python
"""Quickstart: build a graph, run the algebra, serve queries via a session.

Walks the things a new user of the library does first:

1. build a :class:`SocialContentGraph` by hand;
2. manipulate it with the paper's algebra operators;
3. stand up a warm :class:`~repro.api.Session` and run structured queries
   (fluent builder, per-request overrides, pagination);
4. EXPLAIN a request: see the compiled physical plan, the access path the
   cost model chose, and estimated vs. actual cardinalities per operator;
5. (migration note) the old one-shot facade calls still work.

Run:  python examples/quickstart.py
"""

from repro import Session
from repro.core import (
    Condition,
    Link,
    Node,
    SocialContentGraph,
    aggregate_nodes,
    count,
    select_links,
    select_nodes,
    semi_join,
)

# ---------------------------------------------------------------------------
# 1. Build a graph: two travelers, three destinations, some activity.
# ---------------------------------------------------------------------------
graph = SocialContentGraph()
graph.add_node(Node(1, type="user, traveler", name="John"))
graph.add_node(Node(2, type="user", name="Ann"))
graph.add_node(Node("coors", type="item, destination",
                    name="Coors Field", keywords="denver baseball stadium"))
graph.add_node(Node("museum", type="item, destination",
                    name="Ballpark Museum", keywords="denver baseball museum"))
graph.add_node(Node("aquarium", type="item, destination",
                    name="Downtown Aquarium", keywords="denver family aquarium"))

graph.add_link(Link("f1", 1, 2, type="connect, friend"))
graph.add_link(Link("f2", 2, 1, type="connect, friend"))
graph.add_link(Link("v1", 1, "coors", type="act, visit"))
graph.add_link(Link("v2", 2, "coors", type="act, visit"))
graph.add_link(Link("v3", 2, "museum", type="act, visit"))
graph.add_link(Link("t1", 2, "museum", type="act, tag",
                    tags="baseball history"))

print(f"graph: {graph}")

# ---------------------------------------------------------------------------
# 2. The algebra (paper §5).
# ---------------------------------------------------------------------------
# Node Selection with keywords attaches relevance scores (Definition 1):
baseball = select_nodes(
    graph, Condition({"type": "destination"}, keywords="denver baseball")
)
print("\nσN(destinations, 'denver baseball'):")
for node in sorted(baseball.nodes(), key=lambda n: -(n.score or 0)):
    print(f"  {node.value('name')}: score={node.score:.3f}")

# Semi-join against a null graph filters links by endpoint (Definition 6):
anns_acts = select_links(
    semi_join(graph, select_nodes(graph, {"id": 2}), ("src", "src")),
    {"type": "act"},
)
print(f"\nAnn's activities: {[l.id for l in anns_acts.links()]}")

# Node aggregation counts friends into an attribute (Definition 9):
with_counts = aggregate_nodes(graph, {"type": "friend"}, "src",
                              "fnd_cnt", count())
print(f"John's friend count: {with_counts.node(1).value('fnd_cnt')}")

# ---------------------------------------------------------------------------
# 3. The session API (Figure 1 as a serving loop).
# ---------------------------------------------------------------------------
# One Session owns the wired layers and stays warm across queries: the
# tf-idf corpus and the semantic inverted index build once, lazily, and
# survive until the graph changes.
session = Session.from_graph(graph)

response = (session.query(1)                 # the requesting user
            .text("denver baseball")         # content keywords
            .limit(10)                       # ranked-result budget
            .run())

print("\nsession.query(John).text('denver baseball').run():")
print(f"  grouping dimension chosen: {response.page.chosen_dimension}")
print(f"  candidates from index: {response.index_used}")
for group in response.groups:
    print(f"  [{group.label}]")
    for entry in group.entries:
        print(f"    {entry.name}  score={entry.score:.3f}")
        if entry.explanation.aggregate_text:
            print(f"      ({entry.explanation.aggregate_text})")

# Per-request overrides leave the session untouched: semantic-only scoring
# for this one query, and a forced grouping dimension.
semantic_only = (session.query(1).text("denver baseball")
                 .alpha(1.0).group_by("topical").run())
print(f"\nα=1.0, group_by topical: {[i for i in semantic_only.items]}")

# Deterministic pagination: windows of the same total ranking.
page1 = session.query(1).text("denver").page_size(2).run()
print(f"\npage 1 of 'denver': {list(page1.items)}"
      f" (total {page1.page_info.total_items},"
      f" has_next={page1.page_info.has_next})")
if page1.page_info.next_cursor:
    page2 = (session.query(1).text("denver")
             .cursor(page1.page_info.next_cursor).run())
    print(f"page 2 of 'denver': {list(page2.items)}")

# ---------------------------------------------------------------------------
# 4. EXPLAIN: every query is compiled into an optimizable physical plan.
# ---------------------------------------------------------------------------
# The session never hand-executes a query: the *whole* pipeline — the
# semantic σN⟨C,S⟩ candidate stage, connection selection, the social
# scoring strategy (a semi-join probe / grouped aggregation), and the
# α-combination — is built as one algebra plan, rule-optimized, and
# lowered to physical operators.  The cost model over GraphStats picks
# every access path — scan vs. the semantic inverted index for keyword
# scoping — and the social stage runs fused into the combination, one
# form per strategy.  `.explain()` attaches the executed plan.
explained = (session.query(1)
             .text("denver baseball")
             .explain()
             .run())
plan = explained.plan
print("\nEXPLAIN session.query(John).text('denver baseball'):")
print("  " + plan.text.replace("\n", "\n  "))
# The combine⟨α⟩ root merges the two stages; social⟨friends⟩ and
# basis⟨…⟩ are the compiled social stage (Example 4/5's semi-joins +
# aggregations), sharing the σN candidate sub-plan — it executes once.
assert "combine" in plan.text and "social" in plan.text
print(f"  social strategy in the plan: {plan.resolved_strategy}")

# Per-operator estimated vs. actual cardinalities.  Estimates come from
# the live graph's statistics alone, so they read the same every run:
for op in plan.operators:
    actual = f"{op.actual.nodes:.0f} nodes" if op.actual else "-"
    print(f"  {'  ' * op.depth}{op.op}: estimated ~{op.estimated.nodes:.0f}"
          f" nodes, actual {actual}")

# The access decision is cost-based, and forcing the scan path yields the
# *identical* page (the index's parity contract):
print(f"  access path: {plan.access_path}"
      f" ({plan.decisions[0].reason if plan.decisions else 'no choice'})")
forced_scan = (session.query(1).text("denver baseball")
               .use_index(False).explain().run())
assert list(forced_scan.items) == list(explained.items)
print(f"  forced scan returns the same page: {list(forced_scan.items)}")

# Compiled plans cache per shape — the cache now covers the *full*
# query, social stage included: re-running the request skips the
# optimizer (see session.stats.plan_cache_hits), and any graph change
# invalidates every cached plan at once.
session.query(1).text("denver baseball").run()
print(f"  plan compiles: {session.stats.plan_compiles},"
      f" plan-cache hits: {session.stats.plan_cache_hits}")

# Strategy selection itself is cost-based when left open: strategy="auto"
# lets the compiler pick from the connection-degree statistics, and the
# decision (with its reason) rides on the plan.
from repro.api import SearchRequest

auto = session.run(SearchRequest(user_id=1, strategy="auto", explain=True))
pick = auto.plan.strategy_decision
print(f"  auto strategy pick: {pick.chosen} ({pick.reason})")
assert auto.resolved["social_strategy"] == pick.chosen

# ---------------------------------------------------------------------------
# 5. A bigger site: the window is pushed into the ranking.
# ---------------------------------------------------------------------------
# The site is stored in one partition.  Large base-graph scans run over
# the planner's *columnar* view of it — type buckets, dictionary-encoded
# attributes, term postings — and real node records only materialise
# for the survivors; this small site stays on the row scan.  Either
# way, the ranking stage orders only the requested window.
big = SocialContentGraph()
for u in range(80):
    big.add_node(Node(f"u{u}", type="user", name=f"traveler {u}"))
for i in range(400):
    big.add_node(Node(f"d{i}", type="item, destination", name=f"spot {i}",
                      keywords=f"denver topic{i % 7}"))
for u in range(80):
    big.add_link(Link(f"c{u}", f"u{u}", f"u{(u + 1) % 80}",
                      type="connect, friend"))
    for step in range(3):
        big.add_link(Link(f"a{u}-{step}", f"u{u}", f"d{(u * 5 + step) % 400}",
                          type="act, visit"))

site = Session.from_graph(big)
recommendation = site.query("u0").limit(5).explain().run()
print(f"\nbigger site: {len(recommendation.items)} recommendations")
# the EXPLAIN header carries the top-k bound the .limit(5) budget pushed
# into the ranking stage (the sort is a heap selection of 5, not a full
# ordering of every candidate):
assert "top-k=5" in recommendation.plan.text
assert recommendation.plan.topk == 5
for op in recommendation.plan.operators:
    print(f"  {'  ' * op.depth}{op.op}: {op.actual.nodes:.0f} nodes")

# ---------------------------------------------------------------------------
# 6. Serve many tenants at once: the asyncio gateway.
# ---------------------------------------------------------------------------
# One warm session answers one query at a time; repro.serve.ServeGateway
# is its concurrent front door.  Tenants submit concurrently, admission
# control sheds past-budget traffic with a typed Overloaded *value* (not
# an exception), and each admitted request runs on a bounded worker pool
# over the shared warm state — same-shape requests compile once in the
# session's plan cache.
import asyncio

from repro.serve import (
    AdmissionPolicy, GatewayConfig, Overloaded, ServeGateway, TenantPolicy,
)

hot = SearchRequest(user_id="u0", text="denver", k=5)


async def serve_demo():
    async with ServeGateway(site) as gateway:
        outcomes = await asyncio.gather(
            gateway.submit("alice", hot),
            gateway.submit("bob", hot.replace(k=3)),
            gateway.submit("carol", hot.replace(page=2)),
            gateway.submit("dave", SearchRequest(user_id="u1", k=5)),
        )
        return outcomes, gateway.stats(), gateway.plan_cache_stats()


outcomes, serve_stats, serve_cache = asyncio.run(serve_demo())
assert all(o.ok for o in outcomes)
# alice/bob/carol differ only in k and pagination: each got their own
# exact response window over the same ranking
assert outcomes[0].items[:3] == outcomes[1].items
print(f"\ngateway: {serve_stats.completed} served,"
      f" {serve_stats.shed} shed, {serve_stats.failed} failed")
# the gateway's management endpoint reports the served session's plan
# cache: hits, compiles paid, LRU evictions, resident plans
print(f"  plan cache through the gateway:"
      f" hits={serve_cache['hits']} compiles={serve_cache['compiles']}"
      f" evictions={serve_cache['evictions']} size={serve_cache['size']}")
assert serve_cache["hits"] >= 1

# Admission control: a tenant with an exhausted budget is shed, others
# are untouched.  Overloaded is an outcome, not an exception.
tight = GatewayConfig(admission=AdmissionPolicy(
    default=TenantPolicy(capacity=2, refill_per_s=1)))


async def overload_demo():
    async with ServeGateway(site, tight) as gateway:
        return await asyncio.gather(*(
            gateway.submit("greedy", hot) for _ in range(4)
        ))


verdicts = asyncio.run(overload_demo())
shed = [v for v in verdicts if isinstance(v, Overloaded)]
print(f"  overload: {len(verdicts) - len(shed)} served, {len(shed)} shed"
      f" ({shed[0].reason}, retry in {shed[0].retry_after_s:.1f}s)")
assert len(shed) == 2 and all(v.reason == "tenant_budget" for v in shed)

# End-to-end deadlines are the other typed shed: every admitted request
# carries one (tenant policy, or the gateway default), enforced both by
# a loop-side timer and by cooperative checks inside the plan executor.
# A request that cannot make its budget resolves as DeadlineExceeded —
# a value, never a stuck future.  (Here the deadline is shorter than one
# request takes, so the clock runs out before an answer exists.)
from repro.serve import DeadlineExceeded

impatient = GatewayConfig(default_deadline_s=1e-4)


async def deadline_demo():
    async with ServeGateway(site, impatient) as gateway:
        return await gateway.submit("latency-bound", hot), gateway.stats()


expired, dstats = asyncio.run(deadline_demo())
assert isinstance(expired, DeadlineExceeded) and not expired.ok
print(f"  deadline: shed at stage={expired.stage!r} after"
      f" {expired.elapsed_s * 1e3:.1f}ms (budget"
      f" {expired.deadline_s * 1e3:.1f}ms)")
assert dstats.deadline_expired == 1

# ---------------------------------------------------------------------------
# 7. Durability: save the site, kill the process, recover — warm.
# ---------------------------------------------------------------------------
# A site is one directory: a snapshot file (CRC-verified JSON lines),
# MANIFEST.json, and an append-only activity WAL.  Every
# add_node/add_link/delete after enable_wal() journals before it
# acknowledges; Session.save() checkpoints atomically and rotates the
# log, so recovery is "load snapshot + replay the short tail".  (The
# real kill -9 — torn WAL frame, fresh interpreter — runs in CI as
# benchmarks/durability_smoke.py; here we just drop the session.)
import tempfile
from pathlib import Path

from repro.errors import RestartCursorError

site_dir = Path(tempfile.mkdtemp(prefix="socialscope-site-"))
site.data_manager.enable_wal(site_dir / "wal")

before = site.run(SearchRequest(user_id="u0", text="denver", k=5,
                                page_size=3))
stale_cursor = before.page_info.next_cursor
assert stale_cursor is not None  # a second page exists to come back for
site.save(site_dir)

# Post-checkpoint activity lands only in the WAL — exactly what a crash
# would strand — and the "crash": the session object simply goes away.
site.data_manager.add_node(Node("d-late", type="item, destination",
                                name="late spot", keywords="denver"))
site.data_manager.wal.sync()
del site

# Recovery = snapshot + WAL tail.  The restore is *warm*: the manifest
# carries a plan-warming recipe list, replayed through the planner — so
# the very first request is a plan-cache hit, no compile.
revived = Session.restore(site_dir)
after = revived.run(SearchRequest(user_id="u0", text="denver", k=5,
                                  page_size=3))
assert list(after.items) == list(before.items)  # identical rankings
assert "d-late" in revived.run(
    SearchRequest(user_id="u0", text="denver", k=50)).items  # tail replayed
assert revived.stats.plan_compiles == 0  # warm: compiled before the crash
print(f"\nrecovered site: rankings identical, WAL tail visible,"
      f" first request plan-cache hits={revived.stats.plan_cache_hits},"
      f" compiles={revived.stats.plan_compiles}")

# Cursors are incarnation-stamped: a token minted before the crash is
# refused with a *typed* error (still a QueryError for old callers),
# never silently re-windowed over a graph that may have moved on.
try:
    revived.run(SearchRequest(user_id="u0", text="denver",
                              cursor=stale_cursor))
    raise AssertionError("pre-crash cursor must not survive a restart")
except RestartCursorError as exc:
    print(f"  pre-crash cursor refused: {exc}")

# ---------------------------------------------------------------------------
# 8. Migration note: the classic facade still works, now session-backed.
#
#    scope = SocialScope.from_graph(graph)
#    scope.search(1, "denver baseball", k=10)  == session.query(1)
#        .text("denver baseball").limit(10).run().page
#    scope.recommend(1, k=5)                   == session.query(1)
#        .limit(5).run().page
#    scope.explore(1, "denver")                == session.explore(
#        SearchRequest(user_id=1, text="denver"))
# ---------------------------------------------------------------------------
from repro import SocialScope

scope = SocialScope.from_graph(graph)
page = scope.search(user_id=1, query="denver baseball")
assert [e.item_id for e in page.flat] == \
    [e.item_id for e in response.page.flat]
print("\nfacade parity holds: scope.search == session.query(...).run().page")
