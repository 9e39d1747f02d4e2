"""Fixture: a per-request module walks the whole site (P002).

``membership`` and ``population`` iterate every link / every node of the
base graph; ``taggers`` reads one node's own adjacency — the rule must
keep it silent.
"""


def membership(base):
    groups = {}
    for link in base.links():  # P002: every link of the site, per request
        groups.setdefault(link.src, set()).add(link.tgt)
    return groups


def population(graph, user):
    everyone = {n.id for n in graph.nodes_of_type("user")}  # P002
    return everyone - {user}


def taggers(graph, item):
    return {link.src for link in graph.in_links(item)}  # adjacency: allowed
