"""Fixture: a sibling module outside the rule's scope stays silent."""


def vocabulary(graph):
    return {n.id for n in graph.nodes()}  # not a per-request module
