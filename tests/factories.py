"""Shared graph factories for the test suite.

Graph-building helpers that used to be duplicated across per-module
setups live here once: the smoke-test travel graph, plain item
populations for plan/cache tests, the controlled-selectivity corpus the
access-path tests sweep, and a small social site with every signal the
social-stage strategies read (connections, activities, derived
similarity) — plus :func:`served` and :func:`write_through`, the way a
test writes to a graph once something serves it,
:func:`assert_relation_as_rebuilt`, which holds a graph's kept activity
relation against a fresh one, and :func:`split_snapshot`, which lays a
site snapshot out as the multi-file snapshots a hash-sharded store used
to write.  Test modules import
them directly (``tests`` is on the pytest ``pythonpath``); the root
conftest re-exports the fixtures.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Callable

from repro.core import Link, Node, SocialContentGraph
from repro.core.activity import ActivityRelation, OutView
from repro.management import DataManager
from repro.plan import QueryPlanner


def tiny_travel_graph() -> SocialContentGraph:
    """The smoke-test graph used throughout the core tests.

    John(101) plus Ann/Bob/Cat, four destinations, visit activities and a
    couple of friend links.  Jaccard similarities with John's visit set
    {d1, d3}: Ann 2/3, Bob 1/4, Cat 1.
    """
    g = SocialContentGraph()
    for uid, name in [(101, "John"), (102, "Ann"), (103, "Bob"), (104, "Cat")]:
        g.add_node(Node(uid, type="user", name=name))
    destinations = [
        ("d1", "Coors Field", "baseball stadium"),
        ("d2", "Ballpark Museum", "baseball museum"),
        ("d3", "Denver Aquarium", "family aquarium"),
        ("d4", "Denver Zoo", "family zoo"),
    ]
    for did, name, keywords in destinations:
        g.add_node(Node(did, type="item, destination", name=name, keywords=keywords))
    visits = [
        (101, "d1"), (101, "d3"),
        (102, "d1"), (102, "d3"), (102, "d2"),
        (103, "d1"), (103, "d2"), (103, "d4"),
        (104, "d3"), (104, "d1"),
    ]
    for i, (u, d) in enumerate(visits):
        g.add_link(Link(f"v{i}", u, d, type="act, visit"))
    g.add_link(Link("f1", 101, 102, type="connect, friend"))
    g.add_link(Link("f2", 101, 103, type="connect, friend"))
    g.add_link(Link("f3", 102, 104, type="connect, friend"))
    return g


def item_graph(n: int = 6) -> SocialContentGraph:
    """A null graph of *n* plain items (plan-cache and aliasing tests)."""
    g = SocialContentGraph()
    for i in range(n):
        g.add_node(Node(i, type="item", name=f"spot {i}"))
    return g


def selectivity_graph(
    num_items: int = 40,
    rare_count: int = 3,
    rare_term: str = "rare",
    common_term: str = "common",
) -> SocialContentGraph:
    """Items all mentioning *common_term*; only a few carry *rare_term*.

    The corpus the scan-vs-index access-path tests sweep: term
    selectivity is exactly controllable, so the cost model's crossover is
    observable.
    """
    g = SocialContentGraph()
    for i in range(num_items):
        text = f"{common_term} everywhere" + (
            f" {rare_term} gem" if i < rare_count else ""
        )
        g.add_node(Node(i, type="item", name=f"spot {i}", keywords=text))
    return g


def social_site_graph(
    num_users: int = 6,
    num_items: int = 8,
    friends_per_user: int = 2,
    acts_per_user: int = 3,
    with_sim_links: bool = True,
) -> SocialContentGraph:
    """A small deterministic social site with every strategy's signal.

    Users form a friendship ring (each follows the next
    *friends_per_user* users), act on a rotating window of items, and —
    when *with_sim_links* — consecutive items carry derived ``sim_item``
    links, so friend-based, similar-user and item-based scoring all have
    material to work with.
    """
    g = SocialContentGraph()
    for u in range(num_users):
        g.add_node(Node(f"u{u}", type="user", name=f"user {u}"))
    for i in range(num_items):
        g.add_node(Node(
            f"i{i}", type="item", name=f"item {i}",
            keywords=f"topic{i % 3} thing",
        ))
    link_id = 0
    for u in range(num_users):
        for step in range(1, friends_per_user + 1):
            g.add_link(Link(
                f"c{link_id}", f"u{u}", f"u{(u + step) % num_users}",
                type="connect, friend",
            ))
            link_id += 1
        for step in range(acts_per_user):
            g.add_link(Link(
                f"a{link_id}", f"u{u}", f"i{(u + step) % num_items}",
                type="act, visit",
            ))
            link_id += 1
    if with_sim_links:
        for i in range(num_items - 1):
            g.add_link(Link(
                f"s{i}", f"i{i}", f"i{i + 1}", type="sim_item",
                sim=round(0.2 + 0.1 * (i % 5), 3), derived_by="factory",
            ))
    return g


def served(graph: SocialContentGraph) -> tuple[DataManager, SocialContentGraph]:
    """*graph* loaded into a fresh Data Manager, and the (frozen) graph the
    manager serves — the only way a served graph changes is through it."""
    manager = DataManager()
    manager.load_graph(graph)
    return manager, manager.graph()


def write_through(
    manager: DataManager,
    holder: QueryPlanner,
    write: Callable[[DataManager], object],
) -> SocialContentGraph:
    """Apply *write* through *manager* and move *holder* to the graph the
    manager serves next, by the step's delta; returns that graph."""
    version = manager.version
    write(manager)
    graph = manager.graph()
    holder.refresh(graph, manager.changes_since(version))
    return graph


def assert_relation_as_rebuilt(graph: SocialContentGraph) -> int:
    """Every read filled on *graph*'s kept activity relation — out views,
    endorsers, ``is_user``, the term postings, the similarity rows —
    equals a fresh relation's, iteration order included; returns how many
    were held (0 when the graph keeps no relation).

    First it forces the similarity rows of every node whose out view is
    held and of every item whose endorsers are, so that the next served
    graph has rows to carry and its check compares them."""
    kept = graph._activity
    if kept is None:
        return 0
    for node in list(kept._out):
        kept.user_row(node)
    for item in list(kept._endorsers):
        kept.item_row(item)
    fresh = ActivityRelation(graph)
    for node, view in kept._out.items():
        again = fresh.out(node)
        for name in OutView.__slots__:
            assert getattr(view, name) == getattr(again, name), (node, name)
        assert list(view.acted) == list(again.acted), node
    for item, endorsers in kept._endorsers.items():
        assert list(endorsers.items()) == \
            list(fresh.endorsers(item).items()), item
    for node, found in kept._users.items():
        assert found == fresh.is_user(node), node
    for node, row in kept._user_rows.items():
        assert row == fresh.user_row(node), node
    for item, row in kept._item_rows.items():
        assert row == fresh.item_row(item), item
    held = len(kept._out) + len(kept._endorsers) + len(kept._users) \
        + len(kept._user_rows) + len(kept._item_rows)
    if kept._postings is not None:
        assert kept._postings == fresh.term_postings()
        held += 1
    return held


def split_snapshot(directory: str | Path, files: int) -> dict:
    """Rewrite the one-file site snapshot in *directory* as *files*
    record files, the layout a hash-sharded store wrote; returns the new
    manifest.

    Nodes deal round-robin across the files and each link goes to the
    file holding its source node, so links cross files exactly as they
    crossed shards.  Every file gets its header and CRC, and the
    manifest lists them all.
    """
    directory = Path(directory)
    manifest_path = directory / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    (entry,) = manifest["shards"]
    source = directory / entry["file"]
    records = [json.loads(line) for line in source.read_text().splitlines()]
    source.unlink()
    nodes = [r for r in records if r["kind"] == "node"]
    home = {r["id"]: i % files for i, r in enumerate(nodes)}
    parts: list[list[dict]] = [[] for _ in range(files)]
    for record in nodes:
        parts[home[record["id"]]].append(record)
    for record in records:
        if record["kind"] == "link":
            parts[home[record["src"]]].append(record)
    entries = []
    for index, part in enumerate(parts):
        counts = {kind: sum(r["kind"] == kind for r in part)
                  for kind in ("node", "link")}
        header = {"kind": "header", "format": "socialscope-graph",
                  "version": 2, "meta": {"shard": index,
                                         "nodes": counts["node"],
                                         "links": counts["link"]}}
        data = "".join(json.dumps(r) + "\n" for r in [header, *part])
        name = f"shard-{index:04d}.jsonl"
        (directory / name).write_text(data)
        entries.append({"file": name, "nodes": counts["node"],
                        "links": counts["link"],
                        "crc32": zlib.crc32(data.encode()) & 0xFFFFFFFF})
    manifest.update(num_shards=files, shards=entries)
    manifest_path.write_text(json.dumps(manifest, indent=1))
    return manifest
