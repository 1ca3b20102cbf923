"""Shared fixtures: small canonical graphs used across the test suite."""

from __future__ import annotations

import random

import pytest

from repro.datasets.highschool import highschool_graph
from repro.datasets.sbm import two_block_sbm
from repro.datasets.scale_free import (
    erdos_renyi_graph,
    preferential_attachment_graph,
    star_heavy_graph,
)
from repro.graph.digraph import DynamicDiGraph
from repro.service import BatchCostModel


@pytest.fixture
def line_graph() -> DynamicDiGraph:
    """0 -> 1 -> 2 -> 3 -> 4."""
    return DynamicDiGraph(edges=[(i, i + 1) for i in range(4)])


@pytest.fixture
def cycle_graph() -> DynamicDiGraph:
    """A directed 5-cycle."""
    return DynamicDiGraph(edges=[(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture
def diamond_graph() -> DynamicDiGraph:
    """0 -> {1, 2} -> 3: two parallel paths."""
    return DynamicDiGraph(edges=[(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def two_scc_graph() -> DynamicDiGraph:
    """Two 3-cycles joined by a one-way bridge 2 -> 3."""
    return DynamicDiGraph(
        edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    )


@pytest.fixture
def disconnected_graph() -> DynamicDiGraph:
    """Two components with no edges between them."""
    return DynamicDiGraph(edges=[(0, 1), (1, 0), (10, 11), (11, 12)])


@pytest.fixture(scope="session")
def highschool() -> DynamicDiGraph:
    return highschool_graph()


@pytest.fixture(scope="session")
def sbm_small() -> DynamicDiGraph:
    return two_block_sbm(100, 6.0, seed=7)


@pytest.fixture(scope="session")
def pa_small() -> DynamicDiGraph:
    return preferential_attachment_graph(300, 2, seed=7)


@pytest.fixture(scope="session")
def star_small() -> DynamicDiGraph:
    return star_heavy_graph(200, num_hubs=4, seed=7)


@pytest.fixture(scope="session")
def er_small() -> DynamicDiGraph:
    return erdos_renyi_graph(150, 1.8, seed=7)


def random_graph(n: int, m: int, seed: int) -> DynamicDiGraph:
    """A random simple digraph with up to ``m`` edges (test helper)."""
    rng = random.Random(seed)
    g = DynamicDiGraph(vertices=range(n))
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def resolved(plan):
    """A plan's index-rung verdicts: pair -> (answer, via, detail)."""
    outcomes, pending = plan.outcomes, set(plan.pending_rows)
    booked = [row for row in range(len(outcomes.pairs)) if row not in pending]
    return {
        (o.source, o.target): (o.answer, o.via, o.detail)
        for o in map(outcomes.row, booked)
    }


def pending(plan):
    """A plan's pairs that need a search, in its order."""
    return [plan.outcomes.pairs[row] for row in plan.pending_rows]


def force_waves(svc):
    """Make ``svc``'s wave rung sweep whatever reaches it.

    The cost model's cutover keeps the few survivors of a tiny test graph
    on the engine rung; tests that mean to exercise the bit-parallel
    sweep swap in a model whose sweep is free (and assert
    ``bit_waves > 0`` afterwards). Returns ``svc``.
    """
    svc._batch_cost = BatchCostModel(layer_dispatch_s=0, word_edge_s=0)
    return svc
