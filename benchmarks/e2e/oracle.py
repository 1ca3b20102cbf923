"""Verdict checking, off the clock, on the benchmark's own graph copy.

Read-only workloads check every distinct pair the server answered.
Two facts about the top-degree hub ``h`` settle most pairs in O(1) from
two plain BFS runs (``s`` reaches ``h`` and ``h`` reaches ``t`` => yes;
``h`` reaches ``s`` but not ``t`` => no; ``t`` reaches ``h`` but ``s``
does not => no). The rest run the dict-substrate ``baselines.bibfs``
search; when there are too many for that to fit a run (the 16 384-pair
searchable pool), one pass over the condensation answers them all and
the search re-checks every 32nd. ``churn_point`` replays its
single-writer update stream to each sampled outcome's graph version and
searches there.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.baselines.bibfs import bibfs_is_reachable
from repro.graph.digraph import DynamicDiGraph
from repro.graph.scc import strongly_connected_components

from inputs import Inputs, Pair, core_of
from load import PhaseResult

#: churn_point checks one outcome in this many (by stream position).
CHURN_SAMPLE_EVERY = 50
#: Above this many unsettled pairs the closure pass replaces per-pair search.
SEARCH_EACH_LIMIT = 2048
CLOSURE_RECHECK_EVERY = 32


def _search(graph: DynamicDiGraph, s: int, t: int) -> bool:
    return bibfs_is_reachable(graph, s, t, use_kernels=False)


def closure_answers(graph: DynamicDiGraph, pairs: List[Pair]) -> List[bool]:
    """Reachability of many pairs at once: pair ``i`` owns bit ``i``, set
    at its target's component; components arrive sinks-first, so OR-ing
    each one's successors into it carries every bit to all its ancestors."""
    comps = strongly_connected_components(graph)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    reach = np.zeros((len(comps), (len(pairs) + 63) // 64), dtype=np.uint64)
    for lane, (_, t) in enumerate(pairs):
        reach[comp_of[t], lane >> 6] |= np.uint64(1 << (lane & 63))
    for c, comp in enumerate(comps):
        for succ in {comp_of[w] for v in comp for w in graph.out_neighbors(v)}:
            if succ > c:
                raise RuntimeError("components are not in reverse topological order")
            if succ != c:
                reach[c] |= reach[succ]
    return [
        bool(int(reach[comp_of[s], lane >> 6]) >> (lane & 63) & 1)
        for lane, (s, _) in enumerate(pairs)
    ]


def check_static(
    graph: DynamicDiGraph, answers: Dict[Pair, bool]
) -> List[str]:
    """Mismatches among ``answers`` on an unchanging ``graph``."""
    fwd, bwd = core_of(graph)
    truth: Dict[Pair, bool] = {}
    open_pairs: List[Pair] = []
    for s, t in answers:
        if s in bwd and t in fwd:
            truth[(s, t)] = True
        elif (s in fwd and t not in fwd) or (t in bwd and s not in bwd):
            truth[(s, t)] = False
        else:
            open_pairs.append((s, t))
    wrong: List[str] = []
    if len(open_pairs) <= SEARCH_EACH_LIMIT:
        truth.update((p, _search(graph, *p)) for p in open_pairs)
    else:
        truth.update(zip(open_pairs, closure_answers(graph, open_pairs)))
        for pair in open_pairs[::CLOSURE_RECHECK_EVERY]:
            if _search(graph, *pair) != truth[pair]:
                wrong.append(f"{pair}: the two oracles disagree")
    wrong += [
        f"{s}->{t}: server {answer}, oracle {truth[(s, t)]}"
        for (s, t), answer in answers.items() if truth[(s, t)] != answer
    ]
    return wrong


def _distinct_answers(
    pairs_and_outcomes: Iterable[Tuple[Pair, object]], wrong: List[str]
) -> Dict[Pair, bool]:
    answers: Dict[Pair, bool] = {}
    for pair, outcome in pairs_and_outcomes:
        if (outcome.source, outcome.target) != pair or not outcome.confident:
            wrong.append(f"{pair}: reply {outcome}")
        elif answers.setdefault(pair, outcome.answer) != outcome.answer:
            wrong.append(f"{pair}: answer changed on an unchanging graph")
    return answers


def check_phase(inputs: Inputs, result: PhaseResult) -> Tuple[int, List[str]]:
    """``(verdicts checked, mismatches)`` over everything the phase saw,
    warm-up included."""
    graph = inputs.graph
    wrong: List[str] = []
    kind = inputs.workload.kind
    if kind == "point":
        answers = _distinct_answers(
            ((q.payload, q.reply) for q in result.queries if q.reply), wrong
        )
        return len(answers), wrong + check_static(graph, answers)
    if kind == "batch":
        answers = _distinct_answers(
            (
                (pair, outcome)
                for q in result.queries if q.reply
                for pair, outcome in zip(inputs.frames[q.payload], q.reply)
            ),
            wrong,
        )
        return len(answers), wrong + check_static(graph, answers)

    # churn: replay updates in version order, checking sampled outcomes
    # at the version they were answered at.
    applied = sorted(
        (u.reply["version"], inputs.updates[u.payload])
        for u in result.updates if u.reply and u.reply["applied"]
    )
    sampled = sorted(
        (q for q in result.queries if q.reply and q.seq % CHURN_SAMPLE_EVERY == 0),
        key=lambda q: q.reply.version,
    )
    replica = graph.copy()
    cursor = 0
    for q in sampled:
        while cursor < len(applied) and applied[cursor][0] <= q.reply.version:
            _, (op, u, v) = applied[cursor]
            (replica.add_edge if op == "+" else replica.remove_edge)(u, v)
            cursor += 1
        s, t = q.payload
        truth = _search(replica, s, t)
        if truth != q.reply.answer or not q.reply.confident:
            wrong.append(
                f"{s}->{t}@v{q.reply.version}: server {q.reply.answer}, "
                f"oracle {truth}"
            )
    return len(sampled), wrong
