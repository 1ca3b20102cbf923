"""A walk's outcomes as columns (:class:`OutcomeColumns`), and the row
type an in-process caller reads them as (:class:`QueryOutcome`). The
rungs book rows in place and the wire encoder reads the columns, so
nothing between the kernel and the socket builds a per-pair object.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

Pair = Tuple[int, int]


class QueryOutcome(NamedTuple):
    """One served query: the answer plus full provenance.

    ``confident`` is ``False`` only for a blown budget's guess, a shed
    query or a total failure. ``via`` names what answered (``fastpath |
    labels | cache | shard | bitbatch | engine | engine-fallback |
    degraded | shed | error``); ``version`` the snapshot the answer is
    exact for; ``retry_after_ms`` the retry hint every shed outcome carries.
    """

    source: int
    target: int
    answer: bool
    confident: bool
    via: str
    version: int
    detail: str = ""
    retry_after_ms: Optional[int] = None


class OutcomeColumns(Sequence):
    """One walk's outcomes, a row per distinct pair; item ``i`` is the
    request's ``i``-th pair's (``fan`` maps repeats onto their row). A row
    is one integer of :attr:`code`, ``tail * 4 + answer * 2 + confident``,
    ``tail`` indexing the walk's few distinct :attr:`tails`."""

    __slots__ = ("pairs", "fan", "version", "code", "tails", "searched", "_tail_at")

    def __init__(
        self, pairs: List[Pair], version: int, fan: Optional[List[int]] = None
    ) -> None:
        self.pairs = pairs
        self.fan = fan  # request position -> row; None: the same
        self.version = version
        self.code = np.zeros(len(pairs), dtype=np.int64)
        self.tails: List[tuple] = []  # (via, version, detail, retry_after_ms)
        #: Per tail: a search paid for its verdicts (they are cacheable).
        self.searched: List[bool] = []
        self._tail_at: Dict[tuple, int] = {}

    @classmethod
    def of_request(cls, queries: Sequence, version: int) -> "OutcomeColumns":
        """Empty columns for a request: repeated pairs share a row."""
        rows = dict.fromkeys(queries)
        pairs = list(rows)
        if len(pairs) == len(queries):
            return cls(pairs, version)
        rows.update(zip(pairs, range(len(pairs))))
        return cls(pairs, version, [rows[pair] for pair in queries])

    @classmethod
    def of(cls, outcomes: Sequence) -> "OutcomeColumns":
        """``outcomes`` if they are columns, else a row per outcome."""
        if isinstance(outcomes, OutcomeColumns):
            return outcomes
        columns = cls([(o.source, o.target) for o in outcomes], 0)
        for row, o in enumerate(outcomes):
            tail = columns.add_tail(o.via, o.detail, False, o.version, o.retry_after_ms)
            columns.code[row] = 4 * tail + 2 * bool(o.answer) + bool(o.confident)
        return columns

    def add_tail(
        self, via: str, detail: str = "", searched: bool = False,
        version: Optional[int] = None, retry_after_ms: Optional[int] = None,
    ) -> int:
        """The index of ``(via, version, detail, retry_after_ms)`` in
        :attr:`tails`, added on first use; ``version`` is the walk's
        unless given."""
        version = self.version if version is None else version
        tail = (via, version, detail, retry_after_ms)
        at = self._tail_at.get(tail)
        if at is None:
            at = self._tail_at[tail] = len(self.tails)
            self.tails.append(tail)
            self.searched.append(searched)
        return at

    def book(
        self, row: int, answer: bool, via: str, detail: str = "",
        confident: bool = True, searched: bool = False,
    ) -> None:
        """Book one row; a ``searched`` confident row is cacheable."""
        tail = self.add_tail(via, detail, searched)
        self.code[row] = 4 * tail + 2 * bool(answer) + bool(confident)

    def book_rows(self, rows, answers, tails) -> None:
        """Book ``rows`` confident; ``answers`` / ``tails``: arrays or scalars."""
        self.code[rows] = 4 * np.asarray(tails) + 2 * np.asarray(answers) + 1

    def cacheable(self) -> List[Tuple[Pair, bool]]:
        """``(pair, answer)`` of every confident row a search answered."""
        if not any(self.searched):
            return []
        code, pairs = self.code, self.pairs
        rows = np.flatnonzero(np.array(self.searched)[code >> 2] & (code & 1 == 1))
        answers = (code[rows] & 2 != 0).tolist()
        return list(zip([pairs[row] for row in rows.tolist()], answers))

    def answers(self) -> np.ndarray:
        """Each request pair's answer, as a bool array."""
        return (self.code if self.fan is None else self.code[self.fan]) & 2 != 0

    def row(self, row: int) -> QueryOutcome:
        code = int(self.code[row])
        return QueryOutcome(
            *self.pairs[row], code & 2 != 0, code & 1 != 0, *self.tails[code >> 2]
        )

    def __len__(self) -> int:
        return len(self.pairs) if self.fan is None else len(self.fan)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(len(self))[index]]
        return self.row(index if self.fan is None else self.fan[index])
