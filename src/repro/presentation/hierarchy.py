"""Hierarchical group presentation with zoom-in / zoom-out (paper §7.1).

    "an interesting presentational alternative is to present the groups
    hierarchically, i.e., initially present a small number of groups
    appropriate for the screen area and upon request divide a group that
    the user is interested in into subgroups.  Devising a grouping
    mechanism that dynamically adjusts with zoom-in and zoom-out requests
    is a promising presentation model."

:class:`HierarchicalPresenter` keeps a stack of (grouping, focus) frames:
``zoom_in(group)`` re-groups the focused group's items along the next-best
dimension; ``zoom_out`` pops back.  Dimension choice at every level reuses
§7.1 meaningfulness, so the hierarchy adapts to what actually splits the
focused subset well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core import Id
from repro.discovery.msg import MeaningfulSocialGraph, ScoredItem
from repro.errors import PresentationError
from repro.presentation.grouping import Group, GroupingResult
from repro.presentation.meaningful import MeaningfulnessWeights, choose_grouping

#: A grouping factory: builds a GroupingResult for a (sub-)MSG.
GroupingFactory = Callable[[MeaningfulSocialGraph], GroupingResult]


def restrict_msg(
    msg: MeaningfulSocialGraph, items: Sequence[Id]
) -> MeaningfulSocialGraph:
    """A sub-MSG over a subset of result items: it keeps the parent's
    endorser set and subgraph, so its taggers are the parent's."""
    keep = set(items)
    return MeaningfulSocialGraph(
        query=msg.query, items=[s for s in msg.items if s.item_id in keep],
        social=msg.social, used_expert_fallback=msg.used_expert_fallback,
        base=msg.base, within=msg,
    )


@dataclass
class Frame:
    """One level of the zoom stack."""

    msg: MeaningfulSocialGraph
    grouping: GroupingResult
    focus_label: str


class HierarchicalPresenter:
    """Zoomable group hierarchy over one discovery result."""

    def __init__(
        self,
        msg: MeaningfulSocialGraph,
        factories: dict[str, GroupingFactory],
        weights: MeaningfulnessWeights | None = None,
    ):
        if not factories:
            raise PresentationError("need at least one grouping factory")
        self.factories = factories
        self.weights = weights or MeaningfulnessWeights()
        self._stack: list[Frame] = []
        root_grouping, _ = self._best_grouping(msg, exclude=set())
        self._stack.append(Frame(msg=msg, grouping=root_grouping,
                                 focus_label="all results"))

    def _best_grouping(
        self, msg: MeaningfulSocialGraph, exclude: set[str]
    ) -> tuple[GroupingResult, dict[str, float]]:
        candidates = [
            factory(msg)
            for name, factory in sorted(self.factories.items())
            if name not in exclude
        ]
        if not candidates:
            raise PresentationError("no remaining grouping dimensions")
        return choose_grouping(candidates, msg, self.weights)

    # ----------------------------------------------------------------- state
    @property
    def depth(self) -> int:
        """Current zoom depth (1 = root)."""
        return len(self._stack)

    @property
    def current(self) -> Frame:
        """The frame currently displayed."""
        return self._stack[-1]

    @property
    def groups(self) -> list[Group]:
        """Groups at the current level."""
        return self.current.grouping.groups

    @property
    def breadcrumbs(self) -> list[str]:
        """Labels from root to the current focus."""
        return [frame.focus_label for frame in self._stack]

    # ------------------------------------------------------------------ zoom
    def zoom_in(self, group_label: str) -> Frame:
        """Divide the named group into subgroups along the next dimension.

        The dimension already used at this level is excluded, so zooming
        always reveals a *different* organisation of the subset.
        """
        group = next(
            (g for g in self.groups if g.label == group_label), None
        )
        if group is None:
            raise PresentationError(f"no group labelled {group_label!r}")
        sub_msg = restrict_msg(self.current.msg, group.items)
        used_dimensions = {
            frame.grouping.dimension.split(":")[0] for frame in self._stack
        }
        exclude = {
            name
            for name in self.factories
            if name.split(":")[0] in used_dimensions
        }
        if len(exclude) >= len(self.factories):
            exclude = set()  # all used: allow reuse rather than fail
        grouping, _ = self._best_grouping(sub_msg, exclude)
        frame = Frame(msg=sub_msg, grouping=grouping, focus_label=group_label)
        self._stack.append(frame)
        return frame

    def zoom_out(self) -> Frame:
        """Pop back one level (no-op at the root)."""
        if len(self._stack) > 1:
            self._stack.pop()
        return self.current
