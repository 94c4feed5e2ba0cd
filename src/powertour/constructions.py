"""Named point sets, random generators, and point-set file I/O.

Random generators are deterministic under a 64-bit seed, an integer
>= 0 (``verifiers.check_seed``); the PRNG is numpy's default_rng (PCG64),
seeded through SeedSequence so results replicate across runs and
platforms.

File formats:
  JSON  {"k": int, "container": "unit_cube", "points": [[...], ...]}
        written byte for byte as ``json.dumps(body, indent=1) + "\n"``:
        one value per line, each coordinate as its ``float.__repr__``
        (``dumps_indent1`` splices the points in)
  CSV   one point per row, k columns, no header, each coordinate as its
        ``float.__repr__``, comma-separated, each row ended by "\r\n" (the
        layout of ``csv.writer``)
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import Container, PointSet, point_set
from .verifiers import check_seed


def diagonal_pair(k: int) -> PointSet:
    """The two opposite vertices 0^k and 1^k of the unit cube."""
    if k < 1:
        raise InputError("k must be >= 1")
    return point_set(np.array([[0.0] * k, [1.0] * k]))


def k3_code4() -> PointSet:
    """The 4-point binary code of length 3 and minimum distance 2;
    all pairwise Euclidean distances equal sqrt(2)."""
    return point_set([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])


def k4_even_weight_code() -> PointSet:
    """The 8 binary vectors of length 4 with an even number of ones."""
    return even_weight_code(4)


def even_weight_code(k: int) -> PointSet:
    """All 2^(k-1) binary vectors of length k with even weight.

    Minimum Hamming distance exactly 2 for k >= 2.  Guarded at k <= 20 to
    keep the enumeration in memory.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if k > 20:
        raise InputError("even-weight code enumeration capped at k = 20")
    verts = _cube_vertices(np.arange(2 ** k), k)
    return point_set(verts[verts.sum(axis=1) % 2 == 0])


def _cube_vertices(index: np.ndarray, k: int) -> np.ndarray:
    """The vertices of {0, 1}^k numbered ``index``: row i holds the k bits
    of index[i], most significant first, so ``np.arange(2 ** k)`` lists
    them in ``itertools.product((0.0, 1.0), repeat=k)`` order."""
    return ((index[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.float64)


def square_tight_sets() -> tuple[PointSet, PointSet, PointSet]:
    """The three planar sets whose optimal tours all cost S_2 = 4:
    the 4 unit-square corners (1+1+1+1), the diagonal pair (2+2), and the
    corners plus center (1+1+1+1/2+1/2)."""
    corners4 = point_set([[0, 0], [1, 0], [1, 1], [0, 1]])
    corners2 = diagonal_pair(2)
    five = point_set([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    return corners4, corners2, five


def midball_reach_extremal_pair(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-cube pair attaining |u+v|/2 + |u-v|/4 = (sqrt5/4)*sqrt(k).

    Requires k divisible by 5: u has its first 4k/5 coordinates +1/2 and
    the rest -1/2; v is the all +1/2 vertex.
    """
    if k < 5 or k % 5 != 0:
        raise InputError("k must be a positive multiple of 5")
    u = np.full(k, 0.5)
    u[4 * k // 5:] = -0.5
    v = np.full(k, 0.5)
    return u, v


def uniform_cube(k: int, n: int, seed: int) -> PointSet:
    """n points drawn uniformly from the unit cube; seed-deterministic."""
    if k < 1 or n < 1:
        raise InputError("need k >= 1 and n >= 1")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), k, n]))
    return point_set(rng.uniform(size=(n, k)))


def cube_vertex_subset(k: int, n: int, seed: int) -> PointSet:
    """n distinct vertices of the binary cube, seed-deterministic."""
    if k < 1 or n < 1:
        raise InputError("need k >= 1 and n >= 1")
    if n > 2 ** k:
        raise InputError(f"cannot draw {n} distinct vertices from a {k}-cube")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), k, n, 1]))
    if 2 ** k <= 4 * n:
        pick = rng.choice(2 ** k, size=n, replace=False)
        return point_set(_cube_vertices(np.sort(pick), k))
    chosen: dict[bytes, np.ndarray] = {}
    while len(chosen) < n:
        batch = rng.integers(0, 2, size=(2 * (n - len(chosen)), k)).astype(np.float64)
        for row in batch:
            chosen.setdefault(row.tobytes(), row)
            if len(chosen) == n:
                break
    return point_set(np.array(list(chosen.values())))


def clustered(k: int, n: int, cluster_count: int, radius: float, seed: int) -> PointSet:
    """n points split round-robin over uniformly placed cluster centers,
    jittered by at most ``radius`` per coordinate and clipped to the cube.
    A negative or non-finite radius raises InputError."""
    if cluster_count < 1 or n < 1:
        raise InputError("need cluster_count >= 1 and n >= 1")
    if not math.isfinite(radius) or radius < 0:
        raise InputError(f"radius must be finite and >= 0, got {radius}")
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), k, n, cluster_count]))
    centers = rng.uniform(size=(cluster_count, k))
    assign = np.arange(n) % cluster_count
    pts = centers[assign] + rng.uniform(-radius, radius, size=(n, k))
    return point_set(np.clip(pts, 0.0, 1.0))


def dumps_indent1(body: dict, arrays: dict[str, np.ndarray], sort_keys: bool = False) -> str:
    """``json.dumps`` of ``body`` plus ``arrays`` as nested lists (indent 1,
    ``sort_keys`` as given), byte for byte.  The arrays hold ints or finite
    floats.

    ``indent`` selects ``json``'s pure-Python encoder, which formats one
    number at a time.  Here ``json.dumps`` writes ``body`` alone, and each
    array is spliced in by one ``%`` of its cells into its layout: ``%r``
    gives the ``int.__repr__`` and ``float.__repr__`` text that ``json``
    writes.  A point file at n = 2000, k = 8 takes about half the time
    (2-core x86-64)."""
    text = json.dumps({**body, **{key: f"\0{key}" for key in arrays}},
                      indent=1, sort_keys=sort_keys)
    for key, a in arrays.items():
        cells = _indent1_layout(a.shape, 1) % tuple(a.ravel().tolist())
        text = text.replace(json.dumps(f"\0{key}"), cells, 1)
    return text


def _indent1_layout(shape: tuple[int, ...], level: int) -> str:
    """The text ``json.dumps(..., indent=1)`` gives an array of ``shape``
    nested ``level`` containers deep, with ``%r`` in place of each number."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    pad = "\n" + " " * (level + 1)
    row = _indent1_layout(shape[1:], level + 1)
    return f"[{pad}{(',' + pad).join([row] * shape[0])}\n{' ' * level}]"


def save_point_set(points: PointSet, path: str | Path) -> None:
    """Write JSON (.json) or CSV (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        body = {"k": points.k, "container": points.container.value}
        path.write_text(dumps_indent1(body, {"points": points.coords}) + "\n")
    else:
        # csv.writer's layout: comma-separated cells, "\r\n" after each row
        row = ",".join(["%r"] * points.k) + "\r\n"
        with path.open("w", newline="") as fh:
            fh.write(row * points.n % tuple(points.coords.ravel().tolist()))


def _refuse_non_numbers(points) -> None:
    """Raise InputError at the first cell of a JSON ``"points"`` list that
    is not a JSON number (``np.array`` would read true as 1.0 and "0.5"
    as 0.5)."""
    for row in points if isinstance(points, list) else ():
        for cell in row if isinstance(row, list) else (row,):
            if type(cell) not in (int, float):
                raise InputError(f"cell {json.dumps(cell)} is not a JSON number")


def load_point_set(path: str | Path) -> PointSet:
    """Read a point-set file written by ``save_point_set``.  A JSON file's
    cells must be JSON numbers, and its ``"k"``, when present, must equal
    the width of its rows.  Every error in its contents, including the
    point set's own checks, names the file."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            data = path.read_bytes()
            body = json.loads(data)
            points = body["points"]
            # A cell that is not a number holds a quote, a brace or a letter
            # of true, false or null.  In a file with no escapes the points
            # follow the first "points" in it, so every cell is checked only
            # when one of those bytes follows it (another key does too): a
            # few memchr passes, about 0.05 ms at n = 2000, k = 12, against
            # about 0.8 ms for a scan of the cells.
            key = data.find(b'"points"')
            if key < 0 or b"\\" in data or any(data.find(c, key + 8) >= 0 for c in b'"{tfn'):
                _refuse_non_numbers(points)
            coords = np.array(points, dtype=np.float64)
            if "k" in body and coords.ndim == 2 and body["k"] != coords.shape[1]:
                raise InputError(f"declares k = {body['k']!r} but its rows have "
                                 f"{coords.shape[1]} coordinates")
            container = Container(body.get("container", "unit_cube"))
        else:
            with path.open(newline="") as fh:
                rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
            coords = np.array(rows, dtype=np.float64)
            # CSV carries no container metadata: infer the cube when it fits
            container = (Container.UNIT_CUBE
                         if ((coords >= -1e-9) & (coords <= 1 + 1e-9)).all()
                         else Container.UNCONSTRAINED)
        return PointSet(coords, container)
    # decode errors, undecodable bytes, non-numeric cells and ragged rows are ValueErrors
    except (KeyError, ValueError, TypeError) as ex:
        raise InputError(f"malformed point-set file {path}: {ex}") from ex
