import tracemalloc

import numpy as np
import pytest

from powertour.geometry import Edge, edge_lengths, point_set


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def square_corners():
    return point_set([[0, 0], [1, 0], [1, 1], [0, 1]])


def random_points(seed: int, n: int, k: int):
    gen = np.random.default_rng(np.random.SeedSequence([seed, n, k]))
    return point_set(gen.uniform(size=(n, k)))


def joinable(system, u: int, v: int) -> bool:
    """Whether edge (u, v) joins endpoints of two distinct paths of
    ``system``, read off its endpoint map: each end has degree < 2, and u
    is not v's far end."""
    far = system.other_end
    return u != v and far[u] >= 0 and far[v] >= 0 and far[u] != v


def plain_sq(x, y) -> float:
    """sum_c (x_c - y_c)^2 in plain Python, columns left to right: the
    reference for every exact key."""
    acc = 0.0
    for a, b in zip(x, y):
        d = a - b
        acc += d * d
    return acc


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy arrays included) while
    ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_edge(points, u: int, v: int) -> Edge:
    """One ``Edge`` weighed by ``edge_lengths``: the eager build that the
    structures' lazy ``edges`` must equal."""
    return Edge(u, v, float(edge_lengths(points, u, v)))


def arrays_of(edges) -> dict[str, list]:
    """The ``u``, ``v`` and ``weights`` of ``Edge`` values, the only form
    a structure takes: how a reference built from ``make_edge`` becomes a
    structure."""
    edges = tuple(edges)
    return {"u": [e.u for e in edges], "v": [e.v for e in edges],
            "weights": [e.weight for e in edges]}


def pair_keys(structure) -> list[tuple[int, int]]:
    """Each edge's (min, max) end pair, in edge order, read off the
    structure's ``u`` and ``v`` arrays."""
    return [(a, b) if a < b else (b, a)
            for a, b in zip(structure.u.tolist(), structure.v.tolist())]
