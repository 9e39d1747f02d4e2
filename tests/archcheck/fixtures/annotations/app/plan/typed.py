"""Fixture: a typed package with unannotated signatures (A001).

``scale`` misses a parameter, ``total`` its return, ``gather`` both star
parameters, the nested ``inner`` everything; ``Box`` shows what is exempt
(``self``, ``cls`` and ``__init__``'s return) and stays silent.
"""


def scale(values: list[float], factor) -> list[float]:  # A001: factor
    return [v * factor for v in values]


def total(values: list[float]):  # A001: return
    return sum(values)


def gather(*parts, **named) -> dict:  # A001: *parts, **named
    return {"parts": parts, **named}


def outer(x: int) -> int:
    def inner(y):  # A001: y, return
        return y + 1

    return inner(x)


class Box:
    def __init__(self, size: int):
        self.size = size

    def grown(self, by: int) -> "Box":
        return Box(self.size + by)

    @classmethod
    def empty(cls) -> "Box":
        return cls(0)
