"""Shared test fixtures and helpers."""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest

import repro.grid.grid as grid_module
from repro.grid.grid import Grid


def scatter(n: int, seed: int = 0, bounds=(0.0, 0.0, 1.0, 1.0)) -> list[tuple[int, tuple[float, float]]]:
    """n pseudo-random objects ``(oid, (x, y))`` inside ``bounds``."""
    rng = random.Random(seed)
    x0, y0, x1, y1 = bounds
    return [
        (oid, (rng.uniform(x0, x1), rng.uniform(y0, y1)))
        for oid in range(n)
    ]


def brute_knn(objects: dict[int, tuple[float, float]], q, k: int):
    """Ground-truth k-NN over a position table, ``(dist, oid)`` ordering."""
    import math

    entries = sorted(
        (math.hypot(x - q[0], y - q[1]), oid) for oid, (x, y) in objects.items()
    )
    return entries[:k]


@contextmanager
def scalar_kernels():
    """Grids (and so monitors) constructed inside this block bind no numpy
    batch-addressing kernel: the scalar reference the kernel is held to.

    Grids probe for the kernel once, at construction, so the block only
    has to cover the constructor call.  This is the one place the scalar
    path is *selected* — nothing under ``src/`` can ask for it.
    """
    with mock.patch.object(grid_module, "vec_cell_ids", lambda: None):
        yield


@pytest.fixture
def small_grid() -> Grid:
    """8x8 unit-square grid with a deterministic 64-object population."""
    grid = Grid(8)
    for oid, (x, y) in scatter(64, seed=11):
        grid.insert(oid, x, y)
    return grid


@pytest.fixture
def empty_grid() -> Grid:
    return Grid(8)
