"""A Highschool-like graph for the Fig. 1 motivating example.

The paper's running example is KONECT's Highschool network: 70 vertices,
366 directed edges of reported friendships among high-school students, with
a pronounced community around the example's source vertex. The original
file is unavailable offline, so :func:`highschool_graph` deterministically
synthesizes a same-scale stand-in with the features Fig. 1 depends on:

* ~70 vertices, ~366 directed edges;
* a dense community containing the source (vertex 0) and the
  *intra-community* destination;
* a second community hosting the *inter-community* destination, linked to
  the first by a handful of bridge edges.

:data:`SOURCE`, :data:`INTRA_DESTINATION` and :data:`INTER_DESTINATION`
name the three special vertices of the figure (star, square, triangle).
"""

from __future__ import annotations

import random

from repro.graph.digraph import DynamicDiGraph

# The three special vertices of Fig. 1 (star, square, triangle). The two
# destinations are chosen so the figure's shape holds on this stand-in:
# the intra-community destination is reached by the push baseline in far
# fewer edge accesses than BFS at both epsilon values, while the
# inter-community destination defeats the large-epsilon baseline (false
# negative) and costs the small-epsilon baseline more accesses than BFS.
SOURCE = 0
INTRA_DESTINATION = 8
INTER_DESTINATION = 50

_NUM_VERTICES = 70
_COMMUNITY_SPLIT = 35  # vertices 0..34 form community A, 35..69 community B
_TARGET_EDGES = 366
_SEED = 20230407


def highschool_graph() -> DynamicDiGraph:
    """The deterministic Highschool stand-in (70 vertices, 366 edges)."""
    rng = random.Random(_SEED)
    graph = DynamicDiGraph(vertices=range(_NUM_VERTICES))
    community_a = list(range(_COMMUNITY_SPLIT))
    community_b = list(range(_COMMUNITY_SPLIT, _NUM_VERTICES))

    def add_random_edges(vertices, count):
        added = 0
        while added < count:
            u = vertices[rng.randrange(len(vertices))]
            v = vertices[rng.randrange(len(vertices))]
            if u != v and graph.add_edge(u, v):
                added += 1

    # Ring backbones keep each community strongly connected, so every
    # intra-community query is positive just as in the real network.
    for block in (community_a, community_b):
        for i, u in enumerate(block):
            graph.add_edge(u, block[(i + 1) % len(block)])

    # Dense intra-community friendships (the blue box in Fig. 1).
    add_random_edges(community_a, 140)
    add_random_edges(community_b, 140)

    # A handful of bridges, including a directed path A -> B so the
    # inter-community query (SOURCE -> INTER_DESTINATION) is positive.
    bridges = [(3, 40), (12, 51), (28, 63), (44, 9), (58, 22), (31, 55)]
    for u, v in bridges:
        graph.add_edge(u, v)

    # Top up to the target edge count with mixed random edges.
    while graph.num_edges < _TARGET_EDGES:
        u = rng.randrange(_NUM_VERTICES)
        v = rng.randrange(_NUM_VERTICES)
        if u == v:
            continue
        same_side = (u < _COMMUNITY_SPLIT) == (v < _COMMUNITY_SPLIT)
        # Keep bridges rare: cross-community fill-ins pass 1 time in 10.
        if same_side or rng.random() < 0.1:
            graph.add_edge(u, v)
    return graph
