"""Fixture: the MSG cut scans every link type bucket (P002)."""


def cut(base, items):
    return [l for l in links_of_type(base, "act") if l.tgt in items]  # P002


def links_of_type(graph, name):
    return [l for l in graph.nodes() if name in l.types]  # P002
