"""Batch analytics: a whole risk sweep as one batch query.

A supply-chain risk sweep: given today's dependency graph (who supplies
whom), score every product against every flagged upstream supplier — a
dense batch of reachability questions.
:meth:`~repro.service.engine.ReachabilityService.query_batch` answers the
batch in one walk down the service's rung ladder (fast path, labels,
cache, bit-parallel waves, IFCA), and after an update the same call
re-checks at the new graph version.

Run with::

    python examples/batch_analytics.py
"""

import random
import time
from collections import Counter

from repro import ReachabilityService
from repro.datasets import preferential_attachment_graph
from repro.graph.stats import summarize

NUM_COMPONENTS = 1_500
NUM_FLAGGED = 20
NUM_PRODUCTS = 120


def main() -> None:
    rng = random.Random(5)
    # Dependencies point supplier -> consumer; hubs are common parts.
    graph = preferential_attachment_graph(
        NUM_COMPONENTS, out_degree=2, seed=9, reciprocal=0.1
    )
    summary = summarize(graph, exact_clustering=False)
    print(
        f"dependency graph: n={summary.num_vertices} m={summary.num_edges}, "
        f"{summary.reachable_pair_fraction:.1%} of ordered pairs connected"
    )

    flagged = rng.sample(range(NUM_COMPONENTS), NUM_FLAGGED)
    products = rng.sample(range(NUM_COMPONENTS), NUM_PRODUCTS)
    batch = [(s, p) for s in flagged for p in products]

    with ReachabilityService(graph) as service:
        start = time.perf_counter()
        outcomes = service.query_batch(batch)
        elapsed = time.perf_counter() - start
        exposed = sum(o.answer for o in outcomes)
        print(
            f"risk sweep: {len(batch)} checks in {elapsed * 1000:.1f} ms, "
            f"{exposed} exposed product/supplier pairs"
        )
        rungs = Counter(o.via for o in outcomes)
        print("answered by: " + ", ".join(
            f"{via} {count}" for via, count in rungs.most_common()
        ))

        # A supplier is remediated: its dependency edges go, and the
        # re-check runs at the new graph version.
        bad = flagged[0]
        removed = 0
        for w in list(service.graph.out_neighbors(bad)):
            service.remove_edge(bad, w)
            removed += 1
        print(f"remediated supplier {bad}: removed {removed} dependency edges")
        recheck = service.query_batch([(bad, p) for p in products])
        still = sum(o.answer for o in recheck)
        print(
            f"re-check at version {recheck[0].version}: {still} products "
            f"still exposed to {bad}"
        )


if __name__ == "__main__":
    main()
