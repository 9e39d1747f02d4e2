"""The SocialScope facade: back-compat shims over the session API.

    Content Management  —  integrating, maintaining and physically
                           accessing the content and social data;
    Information Discovery — analyzing content to derive interesting new
                           information, and interpreting and processing
                           the user's information need;
    Information Presentation — exploring the discovered information and
                           helping users better understand it.

Since the session-API redesign, the engine behind Figure 1 lives in
:class:`repro.api.Session`; :class:`SocialScope` remains the stable entry
point and keeps the historical one-shot call signatures::

    scope = SocialScope.from_graph(graph)
    page = scope.search(user_id, "Denver attractions")     # query
    page = scope.recommend(user_id)                        # empty query

Each old call delegates to a structured :class:`~repro.api.SearchRequest`
on the owned session (so repeated calls stay warm — no per-call layer
rebuilds), and the fluent form is one hop away::

    response = scope.query(user_id).text("Denver attractions").limit(10).run()

Remote sites attach through the management layer (`attach_remote`), and
offline analyses run through `analyze`, after which discovery sees the
enriched graph automatically.
"""

from __future__ import annotations

from repro.api import (
    QueryBuilder,
    SearchRequest,
    SearchResponse,
    Session,
    SessionConfig,
)
from repro.core import Id, SocialContentGraph
from repro.discovery import MeaningfulSocialGraph
from repro.management import DataManager, RemoteSocialSite
from repro.presentation import HierarchicalPresenter, ResultPage

#: Historical name for the stack configuration (same object).
SocialScopeConfig = SessionConfig


class SocialScope:
    """The assembled system — a thin facade over one warm session."""

    def __init__(self, data_manager: DataManager,
                 config: SocialScopeConfig | None = None):
        self.session = Session(data_manager, config)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_graph(
        cls,
        graph: SocialContentGraph,
        config: SocialScopeConfig | None = None,
    ) -> "SocialScope":
        """Build the stack around an existing logical graph."""
        dm = DataManager()
        dm.load_graph(graph)
        return cls(dm, config)

    # -------------------------------------------------------------- delegation
    @property
    def config(self) -> SessionConfig:
        """The stack configuration."""
        return self.session.config

    @property
    def data_manager(self) -> DataManager:
        """The Content Management layer."""
        return self.session.data_manager

    @property
    def analyzer(self):
        """The Content Analyzer."""
        return self.session.analyzer

    @property
    def discoverer(self):
        """The Information Discoverer (kept warm by the session)."""
        self.session._fresh()
        return self.session.discoverer

    @property
    def organizer(self):
        """The Information Organizer (it holds no graph)."""
        return self.session.organizer

    # ---------------------------------------------------------------- content
    @property
    def graph(self) -> SocialContentGraph:
        """The current (possibly analysis-enriched) social content graph."""
        return self.session.graph

    def attach_remote(self, site: RemoteSocialSite,
                      with_activities: bool = False) -> None:
        """Pull a remote site's social data in (Open Cartel integration);
        the session's next request resyncs, re-deriving its analyses."""
        self.session.data_manager.attach_remote(site, with_activities)

    def analyze(self, name: str) -> None:
        """Run one Content Analyzer analysis and refresh discovery.

        The enriched graph lives in the analyzer; the Data Manager keeps
        the raw records (re-deriving is cheap and derivations are marked
        with ``derived_by``, so nothing is lost by not persisting them).
        """
        self.session.analyze(name)

    # -------------------------------------------------------------- discovery
    def discover(self, user_id: Id, text: str = "", structural=None,
                 strategy: str | None = None, k: int | None = None
                 ) -> MeaningfulSocialGraph:
        """Query → MSG (stop before presentation)."""
        return self.session.discover(SearchRequest(
            user_id=user_id, text=text, structural=structural,
            strategy=strategy, k=k,
        ))

    # ------------------------------------------------------------ presentation
    def query(self, user_id: Id) -> QueryBuilder:
        """Start a fluent structured query (the session-API entry point)."""
        return self.session.query(user_id)

    def run(self, request: SearchRequest) -> SearchResponse:
        """Evaluate a structured request (see :mod:`repro.api`)."""
        return self.session.run(request)

    def search(self, user_id: Id, query: str, structural=None,
               strategy: str | None = None, k: int | None = None) -> ResultPage:
        """The full pipeline: query → MSG → organized result page."""
        response = self.session.run(SearchRequest(
            user_id=user_id, text=query, structural=structural,
            strategy=strategy, k=k,
        ))
        return response.page

    def recommend(self, user_id: Id, k: int | None = None) -> ResultPage:
        """Empty-query mode: social relevance only (§4)."""
        return self.search(user_id, "", k=k)

    def explore(self, user_id: Id, query: str) -> HierarchicalPresenter:
        """Zoomable hierarchical presentation of a query's results."""
        return self.session.explore(SearchRequest(user_id=user_id, text=query))
