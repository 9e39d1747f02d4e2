"""Fixture: a module outside the typed packages stays silent."""


def fold(values):
    return sum(values)
