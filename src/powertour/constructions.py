"""Named point sets, random generators, and point-set file I/O.

Random generators are deterministic under a 64-bit seed, an integer
>= 0 (``verifiers.check_seed``); the PRNG is numpy's default_rng (PCG64),
seeded through SeedSequence so results replicate across runs and
platforms.

File formats:
  JSON  {"k": int, "container": "unit_cube", "points": [[...], ...]}
  CSV   one point per row, k columns, no header
"""

from __future__ import annotations

import csv
import itertools
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
    rows = [v for v in itertools.product((0.0, 1.0), repeat=k) if sum(v) % 2 == 0]
    return point_set(np.array(rows))


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
        verts = np.array(list(itertools.product((0.0, 1.0), repeat=k)))
        pick = rng.choice(2 ** k, size=n, replace=False)
        return point_set(verts[np.sort(pick)])
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


def save_point_set(points: PointSet, path: str | Path) -> None:
    """Write JSON (.json) or CSV (anything else)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        body = {"k": points.k, "container": points.container.value,
                "points": points.coords.tolist()}
        path.write_text(json.dumps(body, indent=1) + "\n")
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            for row in points.coords:
                writer.writerow([repr(float(x)) for x in row])


def load_point_set(path: str | Path) -> PointSet:
    """Read a point-set file written by ``save_point_set``.  Every error
    in its contents, including the point set's own checks, names the file."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            body = json.loads(path.read_text())
            coords = np.array(body["points"], dtype=np.float64)
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
