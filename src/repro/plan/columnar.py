"""The columnar view and vectorized selection.

The row-at-a-time executor spends most of a large σN/σL testing nodes a
columnar layout could rule out wholesale: every predicate test re-reads
the same attribute dictionaries, every scan re-materialises the
same per-type node lists, and every operator boundary rebuilds a full
:class:`~repro.core.graph.SocialContentGraph` of records the next
operator immediately re-filters.  This module is the execution substrate
underneath the plan layer's scan family:

* :class:`ColumnarView` — the graph's population held as
  columns: a row-ordered node array, **type buckets**
  (contiguous position ranges where the population permits, plain sorted
  position arrays otherwise), lazily built **dictionary-encoded attribute
  columns** (rows → interned value-tuple codes) and lazily built **term
  postings** (token → positions, the keyword-scope pruning set).
  Everything derived is cut once per graph generation and shared by every plan that
  executes against it.
* :class:`VectorCondition` — a selection condition compiled once per
  physical operator into a vectorized evaluator: bucket intersections for
  type pins, code-table lookups for attribute predicates (the predicate
  runs once per *distinct* value tuple, then broadcasts over the column),
  posting unions for keyword scopes, and a row-wise residual for the
  opaque rest (lambdas, disjunctions).  Operators exchange the resulting
  compact position sets; real :class:`~repro.core.graph.Node` records are
  only gathered — and scored — for the survivors, so a graph is assembled
  once, at the pipeline boundary that needs one.

Parity contract: for any condition and scorer, ``VectorCondition.select``
returns exactly the records (same objects or equal copies, same order)
that :func:`repro.core.selection.select_matching_nodes` returns over the
same population — the differential suite in
``tests/plan/test_columnar.py`` holds the two equal.  Vectorized
predicate evaluation calls the *same* ``Predicate.matches`` logic per
distinct value, so the semantics cannot drift.

NumPy is used when available (it ships with the toolchain); without it
every entry point degrades to the row-wise kernels with identical
results.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

try:  # vectorized path; the row-wise fallback below needs nothing
    import numpy as _np
except ImportError:  # pragma: no cover - toolchain always bakes numpy in
    _np = None

from repro.core.attrs import SCORE_ATTR
from repro.core.conditions import (
    AttrCompare,
    AttrEquals,
    Condition,
    HasAttr,
    HasType,
    Predicate,
    TruePredicate,
)
from repro.core.graph import Link, Node, SocialContentGraph
from repro.core.scoring import resolve_scorer
from repro.core.selection import select_matching_links, select_matching_nodes
from repro.core.text import term_variants, tokenize


def _positions_array(positions: list) -> Any:
    """A compact, sorted position set (ascending row order)."""
    if _np is not None:
        return _np.asarray(positions, dtype=_np.intp)
    return positions


class AttrColumn:
    """One attribute's dictionary-encoded column over a view's rows.

    ``codes[row]`` indexes into ``distinct`` — the interned value tuples,
    with the empty tuple (attribute absent) always present as code 0.  A
    predicate over the attribute evaluates once per distinct tuple and
    broadcasts the boolean over the codes, which is where the columnar
    win comes from: a 20k-row population typically carries a few dozen
    distinct type/category/rating tuples.
    """

    __slots__ = ("codes", "distinct", "tables")

    def __init__(self, records: Sequence[Any], att: str):
        # *records* are Nodes or Links — the column only reads ``.attrs``,
        # so the same encoding serves σN and σL populations.
        interned: dict[tuple, int] = {(): 0}
        codes = [0] * len(records)
        for row, node in enumerate(records):
            values = node.attrs.get(att, ())
            code = interned.get(values)
            if code is None:
                code = interned.setdefault(values, len(interned))
            codes[row] = code
        self.distinct: tuple[tuple, ...] = tuple(interned)
        self.codes = (
            _np.asarray(codes, dtype=_np.intp) if _np is not None else codes
        )
        #: structural predicate key → cached per-distinct-code truth
        #: table.  Keyed by the predicate's structural repr (faithful for
        #: the column-evaluable predicate classes), not object identity,
        #: so the cache survives plan eviction and can never serve a
        #: recycled-address collision.
        self.tables: dict[str, Any] = {}


class _ValueStub:
    """A minimal element exposing one attribute's values to a predicate.

    Lets :class:`VectorCondition` reuse the *exact* ``Predicate.matches``
    implementations per distinct column value instead of re-implementing
    comparison semantics (numeric coercion, superset equality, absent
    attributes) a second time.
    """

    __slots__ = ("att", "tuple_values")

    def __init__(self, att: str):
        self.att = att
        self.tuple_values: tuple = ()

    def values(self, name: str) -> tuple:
        return self.tuple_values if name == self.att else ()

    def value(self, name: str, default: Any = None) -> Any:
        values = self.values(name)
        return values[0] if values else default


def _predicate_attribute(predicate: Predicate) -> str | None:
    """The single attribute a column-evaluable predicate reads, or None.

    ``id`` predicates read the element identity (not an attribute column)
    and stay row-wise; composite/opaque predicates return ``None``.
    """
    if isinstance(predicate, (AttrEquals, AttrCompare, HasAttr)):
        return predicate.att if predicate.att != "id" else None
    return None


class ColumnarView:
    """A graph's node and link populations, held column-wise.

    ``nodes`` (and ``links``) are the row stores in graph iteration
    order; all derived structures — type buckets, attribute columns,
    term postings — build lazily on first use and live as long as
    the view (one graph generation).
    """

    __slots__ = (
        "nodes", "links",
        "_type_buckets", "_type_node_lists", "_link_type_lists",
        "_columns", "_term_postings",
        "_link_type_buckets", "_link_columns", "_link_term_postings",
    )

    def __init__(self, nodes: list[Node] | None = None,
                 links: list[Link] | None = None):
        self.nodes: list[Node] = nodes if nodes is not None else []
        self.links: list[Link] = links if links is not None else []
        self._type_buckets: dict[Any, Any] | None = None
        self._type_node_lists: dict[Any, list[Node]] = {}
        self._link_type_lists: dict[Any, list[Link]] | None = None
        self._columns: dict[str, AttrColumn] = {}
        self._term_postings: dict[str, Any] | None = None
        self._link_type_buckets: dict[Any, Any] | None = None
        self._link_columns: dict[str, AttrColumn] = {}
        self._link_term_postings: dict[str, Any] | None = None

    def relinked(self) -> "ColumnarView":
        """A view of the same node rows over an (empty, to be filled)
        link population.

        The node side — rows, type buckets, attribute columns, term
        postings — is a function of the node records alone, so a
        step that touched only links keeps it: the new view holds the
        *same* row list and lazily-filled caches, and only the link side
        starts over.
        """
        view = ColumnarView(self.nodes)
        view._type_buckets = self._type_buckets
        view._type_node_lists = self._type_node_lists
        view._columns = self._columns
        view._term_postings = self._term_postings
        return view

    # -- node-side columns ----------------------------------------------------

    def type_buckets(self) -> dict[Any, Any]:
        """type value → sorted row positions (the view's type index).

        Positions are contiguous ranges whenever the population arrives
        grouped by type (the common bulk-load layout) — they are stored
        as arrays either way, but stay cheap to intersect because they
        are always ascending.
        """
        if self._type_buckets is None:
            buckets: dict[Any, list[int]] = {}
            for row, node in enumerate(self.nodes):
                for type_value in node.attrs["type"]:
                    buckets.setdefault(type_value, []).append(row)
            self._type_buckets = {
                value: _positions_array(rows) for value, rows in buckets.items()
            }
        return self._type_buckets

    def type_bucket(self, type_value: Any) -> Any | None:
        """Positions of the rows carrying *type_value* (None bucket = ∅)."""
        return self.type_buckets().get(type_value)

    def type_bucket_nodes(self, type_value: Any) -> list[Node]:
        """The bucket materialised as records (cached: covered scans
        return this list verbatim on every execution)."""
        cached = self._type_node_lists.get(type_value)
        if cached is None:
            bucket = self.type_bucket(type_value)
            nodes = self.nodes
            cached = [nodes[row] for row in bucket] if bucket is not None else []
            self._type_node_lists[type_value] = cached
        return cached

    def column(self, att: str) -> AttrColumn:
        """The dictionary-encoded column of *att* (built on first use)."""
        column = self._columns.get(att)
        if column is None:
            column = AttrColumn(self.nodes, att)
            self._columns[att] = column
        return column

    def term_postings(self) -> dict[str, Any]:
        """token → row positions whose text contains the token.

        One tokenisation pass over the population, paid only by the first
        keyword-scoped plan of a generation; every later keyword scope
        prunes its candidate set from these postings instead of
        re-tokenising the population.
        """
        if self._term_postings is None:
            postings: dict[str, list[int]] = {}
            for row, node in enumerate(self.nodes):
                for token in set(tokenize(node.text())):
                    postings.setdefault(token, []).append(row)
            self._term_postings = {
                token: _positions_array(rows)
                for token, rows in postings.items()
            }
        return self._term_postings

    # -- link-side columns ----------------------------------------------------

    def link_type_buckets(self) -> dict[Any, Any]:
        """link type value → sorted row positions into ``links``.

        The σL twin of :meth:`type_buckets`: the positional form the
        vectorized link path intersects (the record-list form below stays
        for the row-wise pruned kernel).
        """
        if self._link_type_buckets is None:
            buckets: dict[Any, list[int]] = {}
            for row, link in enumerate(self.links):
                for type_value in link.attrs["type"]:
                    buckets.setdefault(type_value, []).append(row)
            self._link_type_buckets = {
                value: _positions_array(rows) for value, rows in buckets.items()
            }
        return self._link_type_buckets

    def link_type_bucket(self, type_value: Any) -> Any | None:
        """Positions of the links carrying *type_value* (None bucket = ∅)."""
        return self.link_type_buckets().get(type_value)

    def link_column(self, att: str) -> AttrColumn:
        """The dictionary-encoded link column of *att* (built on first use)."""
        column = self._link_columns.get(att)
        if column is None:
            column = AttrColumn(self.links, att)
            self._link_columns[att] = column
        return column

    def link_term_postings(self) -> dict[str, Any]:
        """token → link row positions whose text contains the token."""
        if self._link_term_postings is None:
            postings: dict[str, list[int]] = {}
            for row, link in enumerate(self.links):
                for token in set(tokenize(link.text())):
                    postings.setdefault(token, []).append(row)
            self._link_term_postings = {
                token: _positions_array(rows)
                for token, rows in postings.items()
            }
        return self._link_term_postings

    # -- link-side buckets ----------------------------------------------------

    def link_type_lists(self) -> dict[Any, list[Link]]:
        """link type value → links of the view carrying it."""
        if self._link_type_lists is None:
            lists: dict[Any, list[Link]] = {}
            for link in self.links:
                for type_value in link.attrs["type"]:
                    lists.setdefault(type_value, []).append(link)
            self._link_type_lists = lists
        return self._link_type_lists

    def link_population(self, type_value: Any | None) -> list[Link]:
        """Links a selection pinning *type_value* must consider."""
        if type_value is None:
            return self.links
        return self.link_type_lists().get(type_value, [])

    # -- back-compat with the PR 4 row view -----------------------------------

    def population(self, type_name: Any | None) -> list[Node]:
        """Nodes a selection pinning *type_name* must consider."""
        if type_name is None:
            return self.nodes
        return self.type_bucket_nodes(type_name)


def cut_columnar_view(
    graph: SocialContentGraph, node_side: ColumnarView | None = None
) -> ColumnarView:
    """The columnar view of *graph*'s nodes and links.

    One pass per graph generation pays for every columnar scan of that
    generation.  *node_side* — the view of a graph with the same node
    records in the same order — spares the node half of that pass and
    keeps the columns already built over it.
    """
    view = node_side.relinked() if node_side is not None \
        else ColumnarView(list(graph.nodes()))
    view.links.extend(graph.links())
    return view


class VectorCondition:
    """A selection condition compiled for columnar evaluation.

    Splits the condition's conjuncts into three tiers:

    * **bucket predicates** (type pins) — intersect the view's type
      buckets;
    * **column predicates** (attribute equality/comparison/presence) —
      evaluate once per distinct interned value tuple, broadcast over the
      column codes;
    * **residual predicates** (lambdas, nested boolean combinations,
      ``id`` tests) — row-wise over the already-pruned survivors.

    Keyword scopes prune through the view's term postings (the exact
    token-membership semantics of ``Condition.keyword_ok``); scoring runs
    only over the final survivors.  Compiled once per physical operator
    and reused across executions and generations — the object is a pure
    function of the condition.
    """

    __slots__ = ("cond", "bucket_types", "column_preds", "residual")

    def __init__(self, cond: Condition):
        self.cond = cond
        bucket_types: list[Any] = []
        column_preds: list[tuple[str, Predicate]] = []
        residual: list[Predicate] = []
        for predicate in cond.predicates:
            if isinstance(predicate, TruePredicate):
                continue
            if isinstance(predicate, HasType):
                bucket_types.append(predicate.type_name)
                continue
            att = _predicate_attribute(predicate)
            if att is not None:
                column_preds.append((att, predicate))
            else:
                residual.append(predicate)
        self.bucket_types = tuple(bucket_types)
        self.column_preds = tuple(column_preds)
        self.residual = tuple(residual)

    # -- evaluation ------------------------------------------------------------

    def _column_table(self, column: AttrColumn, att: str,
                      predicate: Predicate) -> Any:
        """Per-distinct-code truth table of *predicate* over *column*.

        Cached on the column under the predicate's structural repr —
        repeated executions of a cached plan (or of any plan carrying an
        equal predicate) reuse the table instead of re-evaluating the
        predicate per distinct value on every call.  The reprs of the
        column-evaluable predicate classes (:class:`AttrEquals`,
        :class:`AttrCompare`, :class:`HasAttr`) are faithful to their
        semantics, so equal keys imply equal tables.
        """
        key = repr(predicate)
        cached = column.tables.get(key)
        if cached is not None:
            return cached
        stub = _ValueStub(att)
        table = []
        matches = predicate.matches
        for values in column.distinct:
            stub.tuple_values = values
            table.append(matches(stub))
        if _np is not None:
            table = _np.asarray(table, dtype=bool)
        column.tables[key] = table
        return table

    def _keyword_mask(self, postings: dict[str, Any], size: int) -> Any:
        """Union of the query terms' posting sets, as a row mask."""
        mask = _np.zeros(size, dtype=bool)
        for term in self.cond.keywords:
            for variant in term_variants(term):
                rows = postings.get(variant)
                if rows is not None:
                    mask[rows] = True
        return mask

    def _masked_positions(
        self,
        size: int,
        bucket: Callable[[Any], Any | None],
        column: Callable[[str], AttrColumn],
        postings: Callable[[], dict[str, Any]],
    ) -> Any:
        """The shared vectorized core: buckets ∧ columns ∧ keywords.

        Parameterised by the view accessors so the node and link paths
        run the identical mask algebra over their own structures.
        """
        if size == 0:
            return _np.empty(0, dtype=_np.intp)
        mask: Any = None
        for type_value in self.bucket_types:
            rows = bucket(type_value)
            if rows is None or len(rows) == 0:
                return _np.empty(0, dtype=_np.intp)
            typed = _np.zeros(size, dtype=bool)
            typed[rows] = True
            mask = typed if mask is None else mask & typed
        for att, predicate in self.column_preds:
            col = column(att)
            table = self._column_table(col, att, predicate)
            hits = table[col.codes]
            mask = hits if mask is None else mask & hits
        if self.cond.has_keywords:
            keyword = self._keyword_mask(postings(), size)
            mask = keyword if mask is None else mask & keyword
        if mask is None:
            return _np.arange(size, dtype=_np.intp)
        return _np.nonzero(mask)[0]

    def candidate_positions(self, view: ColumnarView) -> Any | None:
        """Sorted node row positions surviving every vectorizable conjunct.

        ``None`` means the vectorized path is unavailable (no NumPy) and
        the caller should fall back to the row kernel.  Residual
        predicates are *not* applied here — the caller row-tests them
        over this pruned set.
        """
        if _np is None:
            return None
        return self._masked_positions(
            len(view.nodes), view.type_bucket, view.column,
            view.term_postings,
        )

    def candidate_link_positions(self, view: ColumnarView) -> Any | None:
        """Sorted *link* row positions surviving the vectorizable conjuncts.

        The σL mirror of :meth:`candidate_positions`: type pins intersect
        the link-type buckets, attribute predicates broadcast over the
        link columns, keyword scopes prune through the link term
        postings.  Residuals stay with the caller, as on the node side.
        """
        if _np is None:
            return None
        return self._masked_positions(
            len(view.links), view.link_type_bucket, view.link_column,
            view.link_term_postings,
        )

    def _filter_residual(self, records: Sequence[Any], positions: Any) -> Any:
        """Row-test the residual predicates over the candidate positions."""
        residual = self.residual
        if not residual:
            return positions
        return _positions_array([
            int(row) for row in positions
            if all(p.matches(records[row]) for p in residual)
        ])

    def gather_nodes(self, view: ColumnarView,
                     positions: Sequence[int],
                     scorer: Any = None) -> list[Node]:
        """Materialise (and score) surviving node rows, in row order."""
        nodes = view.nodes
        cond = self.cond
        want_scores = scorer is not None or cond.has_keywords
        selected: list[Node] = []
        append = selected.append
        if not want_scores:
            for row in positions:
                append(nodes[row])
            return selected
        scoring = resolve_scorer(scorer)
        keywords = cond.keywords
        for row in positions:
            node = nodes[row]
            append(node._with_normalized(
                {SCORE_ATTR: (float(scoring(node, keywords)),)}
            ))
        return selected

    def gather_links(self, view: ColumnarView,
                     positions: Sequence[int],
                     scorer: Any = None) -> list[Link]:
        """Materialise (and score) surviving link rows, in row order."""
        links = view.links
        cond = self.cond
        want_scores = scorer is not None or cond.has_keywords
        selected: list[Link] = []
        append = selected.append
        if not want_scores:
            for row in positions:
                append(links[row])
            return selected
        scoring = resolve_scorer(scorer)
        keywords = cond.keywords
        for row in positions:
            link = links[row]
            append(link.with_score(scoring(link, keywords)))
        return selected

    def select(self, view: ColumnarView, scorer: Any = None) -> list[Node]:
        """σN over one view: the columnar twin of the row kernel.

        Returns exactly what
        :func:`~repro.core.selection.select_matching_nodes` returns over
        ``view.nodes`` — same records, same order — having tested only
        the rows the columns could not exclude.
        """
        positions = self.candidate_positions(view)
        if positions is None:  # no NumPy: row kernel over the pruned bucket
            population = (
                view.type_bucket_nodes(self.bucket_types[0])
                if self.bucket_types else view.nodes
            )
            return select_matching_nodes(population, self.cond, scorer)
        return self.gather_nodes(
            view, self._filter_residual(view.nodes, positions), scorer
        )

    def select_links(self, view: ColumnarView, scorer: Any = None,
                     prune_type: Any | None = None) -> list[Link]:
        """σL over one view's link population, vectorized like σN.

        Type pins, attribute predicates and keyword scopes evaluate over
        the link columns (buckets, dictionary codes, term postings);
        residuals row-test the pruned survivors — exactly the σN shape.
        Returns what :func:`~repro.core.selection.select_matching_links`
        returns over the (*prune_type*-pruned) population: same records,
        same order.
        """
        positions = self.candidate_link_positions(view)
        if positions is None:  # no NumPy: row kernel over the pruned bucket
            return select_matching_links(
                view.link_population(prune_type), self.cond, scorer
            )
        return self.gather_links(
            view, self._filter_residual(view.links, positions), scorer
        )


def link_subgraph(
    base: SocialContentGraph, links: list[Link]
) -> SocialContentGraph:
    """The subgraph a link selection induces: *links* plus their
    endpoint records pulled from *base*.

    Builds what :meth:`SocialContentGraph.subgraph_from_links` builds
    without its per-record consolidation probes: the links are *base*'s
    own, so they are id-unique by construction.
    """
    out = SocialContentGraph(catalog=base.catalog)
    nodes = out._nodes
    base_node = base.node
    adopt_link = out._adopt_fresh_link
    for link in links:
        for endpoint in (link.src, link.tgt):
            if endpoint not in nodes:
                nodes[endpoint] = base_node(endpoint)
        adopt_link(link)
    return out
